"""Surface-kernel epimorphism verification and search.

A map from the group with signature (g; m_1, ..., m_k) onto a finite group G,
given by the images of the 2g hyperbolic and k elliptic generators, has
torsion-free (surface) kernel exactly when

  * every elliptic image has order exactly m_j,
  * the long relation [a_1,b_1]...[a_g,b_g] c_1 ... c_k maps to the identity,
  * the images generate G.

verify_ske checks these three conditions exactly and packages the result as
a certificate carrying the kernel genus 1 + |G| * q.  search_ske enumerates
image tuples by backtracking over conjugacy-class and centralizer-orbit
representatives, solving the last elliptic generator from the long relation
instead of searching it.  The backtracking is one stream of weighted
solutions in canonical order; each search mode consumes that stream.

Image tuples are always ordered hyperbolic generators first (a_1, b_1, ...,
a_g, b_g), then elliptic generators in signature order.
"""

import json
import os
from typing import NamedTuple

from .groups import DihedralGroup, construct, element_data, element_from_data
from .signatures import Signature, kernel_genus

VERIFIER_VERSION = "1"
DEFAULT_NODE_BUDGET = 10 ** 9


class OrderNotPreserved(ValueError):
    """An elliptic generator image has the wrong order."""

    def __init__(self, period_index, expected, actual):
        self.period_index = period_index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"elliptic generator {period_index} must map to an element of order "
            f"{expected}, image has order {actual}"
        )


class LongRelationFails(ValueError):
    """The images do not satisfy the long relation."""


class NotSurjective(ValueError):
    """The images generate a proper subgroup."""


class SearchSpaceTooLarge(RuntimeError):
    """The backtracking search exhausted its node budget."""


def _node_budget():
    env = os.environ.get("SURFBOUND_NODE_BUDGET")
    return int(env) if env else DEFAULT_NODE_BUDGET


class SkeCertificate(NamedTuple):
    """A verified surface-kernel epimorphism, replayable from its own data."""

    signature: Signature
    group_descriptor: str
    images: tuple
    group_order: int
    kernel_genus: int
    verifier_version: str = VERIFIER_VERSION

    def to_dict(self):
        return {
            "type": "ske",
            "verifier_version": self.verifier_version,
            "signature": {
                "genus": self.signature.genus,
                "periods": list(self.signature.periods),
            },
            "group": self.group_descriptor,
            "group_order": self.group_order,
            "images": [element_data(x) for x in self.images],
            "kernel_genus": self.kernel_genus,
        }

    @staticmethod
    def from_dict(data):
        if not isinstance(data, dict):
            raise TypeError("an ske certificate must be a JSON object")
        if data.get("type") != "ske":
            raise ValueError(f"not an ske certificate: {data.get('type')!r}")
        sig = Signature(data["signature"]["genus"], list_field(data["signature"], "periods"))
        if list(sig.periods) != data["signature"]["periods"]:
            raise ValueError(f"periods must be sorted, got {data['signature']['periods']!r:.60}")
        if not isinstance(data["group"], str):
            raise TypeError(f"group must be a descriptor string, got {data['group']!r:.60}")
        if not isinstance(data["verifier_version"], str):
            raise TypeError("verifier_version must be a string, "
                            f"got {data['verifier_version']!r:.60}")
        group = construct(data["group"])
        images = tuple(element_from_data(group, x) for x in list_field(data, "images"))
        return SkeCertificate(
            signature=sig,
            group_descriptor=data["group"],
            images=images,
            group_order=int_field(data, "group_order"),
            kernel_genus=int_field(data, "kernel_genus"),
            verifier_version=data["verifier_version"],
        )


def int_field(data, key):
    """data[key] if it is an integer (not a bool); TypeError naming key otherwise."""
    value = data[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r:.60}")
    return value


def list_field(data, key):
    """data[key] as a tuple if it is a list; TypeError naming key otherwise."""
    value = data[key]
    if type(value) is not list:
        raise TypeError(f"{key} must be a list, got {value!r:.60}")
    return tuple(value)


def _relation_product(group, genus, hyperbolic, elliptic):
    w = group.identity
    for t in range(genus):
        a, b = hyperbolic[2 * t], hyperbolic[2 * t + 1]
        comm = group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))
        w = group.mul(w, comm)
    for c in elliptic:
        w = group.mul(w, c)
    return w


def verify_ske(sig, group, images):
    """Check a generator assignment and return its certificate.

    Raises OrderNotPreserved / LongRelationFails / NotSurjective on the
    three defect types, NonIntegralGenus if |G| is incompatible with the
    signature.  Only group-protocol operations are used, so parametric
    groups of astronomically large order verify in O(1) arithmetic per step.
    """
    images = tuple(images)
    g, periods = sig.genus, sig.periods
    k = len(periods)
    if len(images) != 2 * g + k:
        raise ValueError(
            f"{sig} needs {2 * g + k} generator images, got {len(images)}"
        )
    for x in images:
        if not group.contains(x):
            raise ValueError(f"image {x!r} is not an element of {group.descriptor!r}")
    hyperbolic, elliptic = images[: 2 * g], images[2 * g:]
    for j, (c, m) in enumerate(zip(elliptic, periods), start=1):
        actual = group.element_order(c)
        if actual != m:
            raise OrderNotPreserved(j, m, actual)
    if _relation_product(group, g, hyperbolic, elliptic) != group.identity:
        raise LongRelationFails(f"long relation image is not the identity for {sig}")
    if not group.generates(images):
        raise NotSurjective(f"images generate a proper subgroup of {group.descriptor!r}")
    kg = kernel_genus(sig, group.order)
    return SkeCertificate(
        signature=sig,
        group_descriptor=group.descriptor,
        images=images,
        group_order=group.order,
        kernel_genus=kg,
    )


def verify_certificate(cert):
    """Replay a certificate from scratch; returns the freshly computed twin."""
    if cert.verifier_version != VERIFIER_VERSION:
        raise ValueError(
            f"unsupported verifier_version {cert.verifier_version!r:.60}, "
            f"this verifier replays version {VERIFIER_VERSION!r}"
        )
    fresh = verify_ske(cert.signature, construct(cert.group_descriptor), cert.images)
    check_recorded(cert, fresh)
    return fresh


def check_recorded(stated, fresh):
    """ValueError naming the first value whose canonical JSON differs between
    the record a certificate states and the one rebuilt from its inputs (1 is
    not true, 2 not 2.0), by its path through objects with the same keys and
    lists of the same length; else the first key only one object has."""
    rebuilt = fresh.to_dict()
    path, value, other = "", stated.to_dict(), rebuilt
    while _canonical(value) != _canonical(other):
        if isinstance(value, dict) and isinstance(other, dict) and value.keys() == other.keys():
            steps = [(f"{path}.{key}" if path else key, value[key], other[key]) for key in value]
        elif isinstance(value, list) and isinstance(other, list) and len(value) == len(other):
            steps = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(value, other))]
        elif isinstance(value, dict) and isinstance(other, dict):
            key = min(value.keys() ^ other.keys(), key=str)
            path = f"{path}.{key}" if path else key
            shown = [_canonical(v[key]) if key in v else "absent" for v in (value, other)]
            raise ValueError(f"certificate states {path} {shown[0]:.80}, "
                             f"recomputed {shown[1]:.80}")
        else:
            name, show = (path.replace("_", " "), repr) if path in rebuilt else (path, _canonical)
            raise ValueError(f"certificate states {name} {show(value):.80}, "
                             f"recomputed {show(other):.80}")
        path, value, other = next(s for s in steps if _canonical(s[1]) != _canonical(s[2]))


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def search_ske(sig, group, mode="first", dedup=False):
    """Backtracking search for surface-kernel epimorphisms onto a finite group.

    mode 'first' returns the first image tuple under the canonical iteration
    order (or None), 'all' returns the list of tuples, 'count' the number.
    With dedup=True, solutions equal up to simultaneous conjugation are
    collapsed to their first representative.  The images of a solution
    generate G, so only the centre Z(G) fixes it: every conjugacy orbit of
    solutions has exactly |G : Z(G)| members.

    Searched slots: elliptic generators (rarest candidate class first), then
    hyperbolic ones; the final elliptic generator is solved from the long
    relation rather than searched.  The canonical order is lexicographic in
    the group's element index, slot by slot.

    The solution set is closed under simultaneous conjugation, so slot 0
    runs over one representative per conjugacy class and slot 1 over one
    representative per orbit of that representative's centralizer; each
    representative is the least-index member of its class or orbit.  A
    solution found there stands for |class| * |orbit| solutions, and the
    canonical-first member of every conjugacy orbit of solutions is one of
    those found.  The search is one stream of (images, weight) pairs, in
    canonical order, and each mode consumes it: 'first' takes its head,
    which stops the search there; 'count' adds the weights and, with dedup,
    divides by |G : Z(G)|; 'all' conjugates each found solution whose orbit
    is not yet in by one element per coset of Z(G), then returns those
    solutions in search order (dedup) or their orbits in canonical order.
    So dedup costs nothing in 'first' and 'all', and at most
    |G| (2 len(generators) + 1) products for Z(G) in 'count'.

    Each element's order is computed once, |G| element_order calls in one
    pass; that table gives the candidates of every period and checks the
    solved last image at each leaf.  A leaf then asks generates about the
    searched images alone, since the solved one is a word in them.

    Classes and orbits are found by BFS under a generating set, the
    group's generators or at most log2 |C(r)| generators of C(r), so each
    slot-0 or slot-1 candidate costs that many conjugations, and each
    non-central slot-0 representative at most 2|G| + 2|C(r)| log2 |C(r)|
    products to find the generators of C(r).  The cut pays off when
    classes are large and centralizers small; where the centre is large it
    saves little, and in an abelian group, where every class and orbit is
    one element, it tries as many nodes as a search without it.

    A node is one assignment to one slot: a class representative in slot 0,
    an orbit representative in slot 1, or a candidate element in any deeper
    slot.  Each costs one node against the budget (SURFBOUND_NODE_BUDGET,
    default 10**9); exceeding it raises SearchSpaceTooLarge.

    Raises NotAdmissible immediately for a signature of measure <= 0, and
    NonIntegralGenus when |G| is incompatible with the signature (no
    surface kernel of that index can exist); kernel_genus checks both.
    """
    if mode not in ("first", "all", "count"):
        raise ValueError(f"unknown search mode {mode!r}")
    kernel_genus(sig, group.order)
    budget = _node_budget()
    elements, index = tuple(group.elements), group.index
    orders = [group.element_order(e) for e in elements]
    g, periods = sig.genus, sig.periods
    k = len(periods)
    by_order = {m: tuple(e for e, o in zip(elements, orders) if o == m)
                for m in set(periods)}
    searched_ell = sorted(range(k - 1) if k else [],
                          key=lambda j: (len(by_order[periods[j]]), j))
    # an admissible signature always leaves at least two searched slots
    slots = [("e", j) for j in searched_ell] + [("h", i) for i in range(2 * g)]
    candidates = [by_order[periods[j]] if kind == "e" else elements for kind, j in slots]
    # the last elliptic image is solved at each leaf, never stored
    ell, hyp = [None] * max(k - 1, 0), [None] * (2 * g)
    nodes = 0

    def assign(pos, cand):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchSpaceTooLarge(
                f"node budget {budget} exhausted searching {sig} -> {group.descriptor}"
            )
        kind, j = slots[pos]
        (ell if kind == "e" else hyp)[j] = cand

    def leaf():
        searched = tuple(hyp) + tuple(ell)
        w = _relation_product(group, g, hyp, ell)
        if periods:
            last = group.inv(w)
            if orders[index[last]] != periods[-1]:
                return None
        elif w != group.identity:
            return None
        # the solved last image is a word in the searched ones, so they
        # generate what all the images generate
        if not group.generates(searched):
            return None
        return searched + (last,) if periods else searched

    def below(pos):
        if pos == len(slots):
            images = leaf()
            if images is not None:
                yield images
            return
        for cand in candidates[pos]:
            assign(pos, cand)
            yield from below(pos + 1)

    def stream():
        # a central representative (class of size 1) has C(r) = G, whose
        # orbits are the conjugacy classes: found once and shared
        central = None
        for r, class_size in _orbits(group, candidates[0], group.generators):
            assign(0, r)
            if class_size == 1:
                if central is None:
                    central = list(_orbits(group, candidates[1], group.generators))
                orbits = central
            else:
                orbits = _orbits(group, candidates[1],
                                 _centralizer_generators(group, r, class_size))
            for s, orbit_size in orbits:
                assign(1, s)
                for images in below(2):
                    yield images, class_size * orbit_size

    if mode == "first":
        return next(stream(), (None,))[0]
    if mode == "count":
        count = sum(weight for _, weight in stream())
        return count // len(_central_cosets(group)) if dedup else count
    # only Z(G) fixes a solution, whose images generate G, so one
    # conjugate per coset of Z(G) gives each member of its orbit once;
    # firsts are the solutions found that open a new orbit
    cosets = [(h, group.inv(h)) for h in _central_cosets(group)]
    firsts, found = [], set()
    for images, _ in stream():
        if images in found:
            continue  # its whole orbit is already in
        firsts.append(images)
        found.update(tuple(group.mul(group.mul(h, y), hinv) for y in images)
                     for h, hinv in cosets)
    if dedup:
        return firsts
    where = [2 * g + j if kind == "e" else j for kind, j in slots]
    return sorted(found, key=lambda images: [index[images[p]] for p in where])


def _orbits(group, candidates, gens):
    # (least-index member, size) of each orbit among the candidates of
    # the subgroup the gens generate, acting by conjugation, in index
    # order; an orbit is found by BFS under the gens, so every candidate
    # costs len(gens) conjugations
    index, elements = group.index, group.elements
    gens = [(x, group.inv(x)) for x in gens]
    seen = bytearray(len(elements))
    for r in candidates:
        if seen[index[r]]:
            continue
        seen[index[r]] = 1
        members = [r]
        for y in members:
            for x, xinv in gens:
                i = index[group.mul(group.mul(x, y), xinv)]
                if not seen[i]:
                    seen[i] = 1
                    members.append(elements[i])
        yield r, len(members)


def _centralizer_generators(group, r, class_size):
    # at most log2 |C(r)| generators of the centralizer of r, whose order
    # is |G| / class_size: an element of C(r) outside the subgroup the
    # earlier ones generate at least doubles it; the subgroup is
    # rebuilt by BFS after each, and the scan stops once it is all of
    # C(r), so the cost is at most 2|G| + 2|C(r)| log2 |C(r)| products
    index, elements = group.index, group.elements
    order = len(elements) // class_size
    gens = []
    inside = bytearray(len(elements))
    members = [elements[index[group.identity]]]
    inside[index[members[0]]] = 1
    for h in elements:
        if len(members) == order:
            break
        if inside[index[h]] or group.mul(h, r) != group.mul(r, h):
            continue
        gens.append(h)
        for y in members:
            for x in gens:
                i = index[group.mul(y, x)]
                if not inside[i]:
                    inside[i] = 1
                    members.append(elements[i])
    return gens


def _central_cosets(group):
    # one element per coset of the centre Z(G), the elements that
    # commute with the generators: |G| (2 len(generators) + 1) products
    index, elements = group.index, group.elements
    centre = [z for z in elements
              if all(group.mul(z, x) == group.mul(x, z) for x in group.generators)]
    covered = bytearray(len(elements))
    cosets = []
    for h in elements:
        if not covered[index[h]]:
            cosets.append(h)
            for z in centre:
                covered[index[group.mul(h, z)]] = 1
    return cosets


def dihedral_witness_ske(g):
    """Certified epimorphism from the quintuple-involution signature onto the
    dihedral group of order 4(g-1), with surface kernel of genus exactly g.

    Verification is O(1) word arithmetic in the parametric dihedral backend,
    so this stays instant for astronomically large g.
    """
    if g < 2:
        raise ValueError(f"need genus >= 2, got {g}")
    n = 2 * (g - 1)
    group = DihedralGroup(n)
    images = (
        (1 % n, 1),
        (0, 1),
        ((g - 2) % n, 1),
        (0, 1),
        ((g - 1) % n, 0),
    )
    sig = Signature(0, (2, 2, 2, 2, 2))
    return verify_ske(sig, group, images)
