"""Finite group backends for surface-kernel work.

Two element models share one informal protocol (mul, inv, identity,
element_order, contains, generates, elements, descriptor; _Group adds
equality by descriptor and index, each element's position in elements):

* PermutationGroup: elements are image tuples, eagerly enumerated by BFS
  over the generators (deterministic order).  A product x*y is one C-level
  call, operator.itemgetter(*y)(x), and generates stops by Lagrange: once
  the closure of the given elements holds more than |G|/q elements, q the
  least prime dividing |G|, the subgroup they generate is all of G.
* CyclicGroup / DihedralGroup: elements are arithmetic keys, so verifying
  a witness inside a dihedral group of order 4(g-1) costs a handful of
  big-int operations however large g gets.  Their elements and index are
  built on first use, once per group.

V4, Q8 and SD16 are metacyclic permutation groups from one builder,
_metacyclic, in their left-regular representation.

Enumeration is bounded by the order cap, SURFBOUND_ORDER_CAP, which
signatures.resource_cap reads and which also bounds the slots ske's search
stores.  Where the order is known from the descriptor (C_n, D_n, S_n, A_n,
direct products, and the parametric elements) it is compared with the cap
before anything is built; otherwise the BFS stops when it would pass the
cap.  Either way OrderCapExceeded is raised.  A group within the cap still
stores order x degree entries.

Composition convention throughout: (x*y)[i] = x[y[i]], i.e. y acts first.
Left multiplication in the regular representation is then a homomorphism.
"""

import re
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .signatures import _factor, decimal, resource_cap


class OrderCapExceeded(RuntimeError):
    """Enumerating the group would exceed the configured order cap."""


def _check_order(what, factors):
    """Raise OrderCapExceeded when the product of factors, a group's known
    order, passes the cap.

    The product stops at the first partial value above the cap, so orders
    like 10**11! are never formed, and nothing of the group is built.
    """
    cap = resource_cap("SURFBOUND_ORDER_CAP")
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise OrderCapExceeded(f"{what} exceeds order cap {cap}")


def element_data(x):
    """JSON form of an element of any backend: tuples become lists."""
    return list(x) if isinstance(x, tuple) else x


def element_from_data(group, data):
    """element_data's inverse: an int, or a flat list of ints for a tuple,
    never a bool.  ValueError unless the element is in group."""
    flat = type(data) is list and all(type(v) is int for v in data)
    x = tuple(data) if flat else data
    if type(x) not in (int, tuple) or not group.contains(x):
        raise ValueError(f"element {data!r:.60} not in group {group.descriptor!r}")
    return x


def _right_mul(y):
    """The map x -> x*y on permutations of y's degree, one C-level call each."""
    if len(y) > 1:
        return itemgetter(*y)
    # itemgetter of a single index returns a bare item, not a tuple
    return lambda x: tuple(x[i] for i in y)


def perm_mul(x, y):
    return _right_mul(y)(x)


def perm_inv(x):
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[xi] = i
    return tuple(out)


def perm_order(x):
    seen = [False] * len(x)
    result = 1
    for start in range(len(x)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = x[i]
            length += 1
        result = lcm(result, length)
    return result


class _Group:
    """Groups are equal, and hash, by descriptor: it names a group canonically."""

    def __eq__(self, other):
        return isinstance(other, _Group) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.elements)}


class PermutationGroup(_Group):
    def __init__(self, degree, generators, descriptor):
        self.degree = degree
        self.descriptor = descriptor
        gens = []
        for g in generators:
            g = tuple(g)
            # the length test first: a huge degree must not be materialised
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g!r:.60}")
            gens.append(g)
        self.generators = tuple(gens)
        self.identity = tuple(range(degree))
        cap = resource_cap("SURFBOUND_ORDER_CAP")
        # eager BFS closure; the visit order is the canonical enumeration
        muls = [_right_mul(g) for g in self.generators]
        elements = [self.identity]
        index = {self.identity: 0}
        for e in elements:
            for mul in muls:
                w = mul(e)
                if w not in index:
                    if len(elements) >= cap:
                        raise OrderCapExceeded(
                            f"group {descriptor!r} exceeds order cap {cap}"
                        )
                    index[w] = len(elements)
                    elements.append(w)
        self.elements = tuple(elements)
        self.index = index

    @property
    def order(self):
        return len(self.elements)

    mul = staticmethod(perm_mul)
    inv = staticmethod(perm_inv)
    element_order = staticmethod(perm_order)

    def contains(self, x):
        return x in self.index

    @cached_property
    def _proper_bound(self):
        # |G|/q for the least prime q dividing |G|: the largest order of a
        # proper subgroup allowed by Lagrange; 0 for the trivial group
        n = self.order
        return n // next(iter(_factor(n))) if n > 1 else 0

    def generates(self, xs):
        """Whether the given elements generate the whole group.

        The closure H = <xs> is grown breadth first, each level by one
        itemgetter per distinct element mapped over the frontier.  |H|
        divides |G|, so it stops with True as soon as the closure holds
        more than |G|/q elements, q the least prime dividing |G|.
        """
        muls = {}
        for x in xs:
            if not self.contains(x):
                raise ValueError(f"element {x} not in group {self.descriptor!r}")
            if x not in muls:
                muls[x] = _right_mul(x)
        bound = self._proper_bound
        closure = {self.identity}
        frontier = (self.identity,)
        while len(closure) <= bound:
            nxt = set()
            for mul in muls.values():
                nxt.update(map(mul, frontier))
            frontier = nxt - closure
            if not frontier:
                return False
            closure |= frontier
        return True


class CyclicGroup(_Group):
    """C_n with elements 0..n-1 as exponent keys; never enumerated unless asked."""

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"cyclic order must be >= 1, got {n}")
        self.n = n
        self.descriptor = f"cyclic:{n}"
        self.identity = 0
        self.generators = (1 % n,)

    @property
    def order(self):
        return self.n

    def mul(self, x, y):
        return (x + y) % self.n

    def inv(self, x):
        return (-x) % self.n

    def element_order(self, x):
        return self.n // gcd(self.n, x)

    def contains(self, x):
        return isinstance(x, int) and 0 <= x < self.n

    def generates(self, xs):
        g = self.n
        for x in xs:
            if not self.contains(x):
                raise ValueError(f"element {x} not in {self.descriptor}")
            g = gcd(g, x)
        return g == 1

    @cached_property
    def elements(self):
        _check_order(self.descriptor, (self.n,))
        return tuple(range(self.n))


class DihedralGroup(_Group):
    """D_n of order 2n, elements (i, e) standing for rotation^i * reflection^e.

    Multiplication key identity: (i,e)*(j,f) = (i + (-1)^e j mod n, e xor f).
    All operations are O(1) integer arithmetic, independent of n.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"dihedral parameter must be >= 1, got {n}")
        self.n = n
        self.descriptor = f"dihedral:{n}"
        self.identity = (0, 0)
        self.generators = ((1 % n, 0), (0, 1))

    @property
    def order(self):
        return 2 * self.n

    def mul(self, x, y):
        i, e = x
        j, f = y
        return ((i + j) % self.n if e == 0 else (i - j) % self.n, e ^ f)

    def inv(self, x):
        i, e = x
        return ((-i) % self.n, 0) if e == 0 else x

    def element_order(self, x):
        i, e = x
        return 2 if e else self.n // gcd(self.n, i)

    def contains(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and isinstance(x[0], int)
            and 0 <= x[0] < self.n
            and x[1] in (0, 1)
        )

    def generates(self, xs):
        # without a reflection only a rotation subgroup is reachable, always proper;
        # with one, the rotation part is generated by the rotation keys together
        # with differences of reflection keys
        rotations = []
        reflections = []
        for x in xs:
            if not self.contains(x):
                raise ValueError(f"element {x} not in {self.descriptor}")
            (rotations if x[1] == 0 else reflections).append(x[0])
        if not reflections:
            return False
        base = reflections[0]
        g = self.n
        for i in rotations:
            g = gcd(g, i)
        for j in reflections[1:]:
            g = gcd(g, j - base)
        return g == 1

    @cached_property
    def elements(self):
        _check_order(self.descriptor, (2, self.n))
        return tuple((i, e) for e in (0, 1) for i in range(self.n))


def perm_group(degree, generators):
    """The group the permutations generate, named perm:<degree>:<images>:... canonically."""
    descriptor = f"perm:{degree}:" + ":".join(",".join(map(str, g)) for g in generators)
    return PermutationGroup(degree, generators, descriptor)


def cyclic_perm(n):
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_order(f"group 'C{n}'", (n,))
    rot = tuple((i + 1) % n for i in range(n))
    return PermutationGroup(n, [rot], f"C{n}")


def dihedral_perm(n):
    # the natural degree-n action is only faithful from n = 3 on
    if n < 3:
        raise ValueError(f"dihedral permutation model needs n >= 3, got {n}; use V4 or C2")
    _check_order(f"group 'D{n}'", (2, n))
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return PermutationGroup(n, [rot, ref], f"D{n}")


def _metacyclic(n, r, s, descriptor):
    """<a, b | a^n = 1, b^2 = a^s, b a b^-1 = a^r> in its left-regular
    representation on the keys (i, e) = a^i b^e, generated by a and b."""
    # a^i b^e * a^j b^f = a^(i + r^e j + s e f) b^(e xor f)
    keys = [(i, e) for e in (0, 1) for i in range(n)]
    index = {k: m for m, k in enumerate(keys)}
    gens = [tuple(index[((i + r ** e * j + s * e * f) % n, e ^ f)] for j, f in keys)
            for i, e in ((1, 0), (0, 1))]
    return PermutationGroup(2 * n, gens, descriptor)


def klein_four():
    return _metacyclic(2, 1, 0, "V4")


def quaternion8():
    return _metacyclic(4, 3, 2, "Q8")


def semidihedral16():
    return _metacyclic(8, 3, 0, "SD16")


GL23_POINTS = tuple(
    (x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)
)


def _linear_perm_33(matrix, points):
    (a, b), (c, d) = matrix
    if (a * d - b * c) % 3 == 0:
        raise ValueError(f"matrix {matrix} is singular mod 3")
    index = {v: i for i, v in enumerate(points)}
    return tuple(index[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in points)


def gl2_3():
    """GL(2,3) acting on the 8 nonzero vectors of F_3^2 in lex order."""
    gens = [
        _linear_perm_33(((1, 1), (0, 1)), GL23_POINTS),
        _linear_perm_33(((1, 0), (1, 1)), GL23_POINTS),
        _linear_perm_33(((2, 0), (0, 1)), GL23_POINTS),
    ]
    return PermutationGroup(8, gens, "GL23")


def symmetric(n):
    if n < 2:
        raise ValueError(f"symmetric model needs n >= 2, got {n}")
    _check_order(f"group 'S{n}'", range(2, n + 1))
    cycle = tuple((i + 1) % n for i in range(n))
    swap = tuple([1, 0] + list(range(2, n)))
    gens = [swap] if n == 2 else [swap, cycle]
    return PermutationGroup(n, gens, f"S{n}")


def alternating(n):
    if n < 3:
        raise ValueError(f"alternating model needs n >= 3, got {n}")
    _check_order(f"group 'A{n}'", range(3, n + 1))  # n!/2
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = tuple([0] + [(i % (n - 1)) + 1 for i in range(1, n)])
    gens = [three] if n == 3 else [three, big]
    return PermutationGroup(n, gens, f"A{n}")


def direct_product(left, right):
    """Direct product of two permutation groups, acting on the disjoint union."""
    for factor in (left, right):
        if not isinstance(factor, PermutationGroup):
            raise ValueError(f"direct product factor {factor.descriptor!r} "
                             "is not a permutation group")
    d1, d2 = left.degree, right.degree
    descriptor = f"{left.descriptor}*{right.descriptor}"
    _check_order(f"group {descriptor!r}", (left.order, right.order))
    gens = []
    for g in left.generators:
        gens.append(tuple(g) + tuple(d1 + i for i in range(d2)))
    for g in right.generators:
        gens.append(tuple(range(d1)) + tuple(d1 + gi for gi in g))
    return PermutationGroup(d1 + d2, gens, descriptor)


def affine33(matrices):
    """(C3 x C3) extended by the linear maps given as 2x2 matrices over F_3.

    Acts on the 9 points of F_3^2 (point (x, y) is index 3x + y); generators
    are the two unit translations followed by the matrices.
    """
    points = [(x, y) for x in range(3) for y in range(3)]
    index = {v: i for i, v in enumerate(points)}
    t1 = tuple(index[((x + 1) % 3, y)] for x, y in points)
    t2 = tuple(index[(x, (y + 1) % 3)] for x, y in points)
    gens = [t1, t2]
    parts = []
    for m in matrices:
        gens.append(_linear_perm_33(m, points))
        parts.append(",".join(str(e % 3) for row in m for e in row))
    return PermutationGroup(9, gens, "aff9:" + ":".join(parts))


_FIXED = {
    "V4": klein_four,
    "klein_four": klein_four,
    "Q8": quaternion8,
    "SD16": semidihedral16,
    "GL23": gl2_3,
}

_NUMBERED = {"C": cyclic_perm, "D": dihedral_perm, "S": symmetric, "A": alternating,
             "cyclic:": CyclicGroup, "dihedral:": DihedralGroup}


def construct(descriptor):
    """Build a group from its descriptor string.

    Grammar: C<n>, D<n> (n >= 3), S<n>, A<n>, V4 (alias klein_four), Q8,
    SD16, GL23, cyclic:<n> and dihedral:<n> (parametric backends, any n),
    aff9:<a,b,c,d>:..., perm:<degree>:<images>:..., and '*' for direct
    products of permutation groups.  Numbers are read by decimal, and a
    perm: group is named by perm_group, not as typed."""
    descriptor = descriptor.strip()
    if "*" in descriptor:
        parts = descriptor.split("*")
        group = construct(parts[0])
        for part in parts[1:]:
            group = direct_product(group, construct(part))
        return group
    if descriptor in _FIXED:
        return _FIXED[descriptor]()
    m = re.fullmatch(r"([CDSA]|cyclic:|dihedral:)([0-9]+)", descriptor)
    if m:
        return _NUMBERED[m.group(1)](decimal(f"n in {m.group(1)}<n>", m.group(2)))
    if descriptor.startswith("aff9:"):
        matrices = []
        for part in descriptor[len("aff9:"):].split(":"):
            entries = [decimal("aff9 matrix entry", t) for t in part.split(",")]
            if len(entries) != 4:
                raise ValueError(f"bad aff9 matrix {part!r:.60}")
            matrices.append(((entries[0], entries[1]), (entries[2], entries[3])))
        return affine33(matrices)
    if descriptor.startswith("perm:"):
        parts = descriptor.split(":")
        if len(parts) < 3:
            raise ValueError(f"bad perm descriptor {descriptor!r:.60}")
        return perm_group(decimal("perm degree", parts[1]),
                          [tuple(decimal("perm image", t) for t in part.split(","))
                           for part in parts[2:]])
    raise ValueError(f"cannot parse group descriptor {descriptor!r:.60}")
