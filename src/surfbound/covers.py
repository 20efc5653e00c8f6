"""Mod-p homology of surface kernels and invariant-hyperplane covers.

A verified surface-kernel epimorphism from the signature group Gamma onto a
finite group Q, with generator images a_s, has a surface group K as kernel:
the fundamental group of the |Q|-sheeted cover X of Gamma's presentation
2-complex.  X has the vertices c in Q, the edges (c, s) from c to c*a_s, and
the faces (c, r), each relator r that signatures.relators states read from c.
Following Fox's free differential calculus (Ann. of Math. 57, 1953),
H^1(K; F_p) is the space of 1-cocycles of X that vanish on a spanning tree:
the nullspace of the distinct face rows with the tree columns zeroed, less
those columns' unit vectors.
Its basis is dual to 2*genus(K) non-tree ("free") edges, which also fixes the
coordinates of H_1(K; F_p); Q acts on both by the deck maps c -> q*c of X.

A Q-invariant hyperplane W = ker(f) < H_1(K; F_p) yields an index-p subgroup
M < K that is normal in Gamma, i.e. a degree-p unramified cover of the
quotient surface on which Q lifts: the cover has genus 1 + p*(genus(K) - 1)
and carries p*|Q| automorphisms.  f is an eigencovector of each generator
matrix M_g, and M_g^ord(g) = I, so its eigenvalues are roots of unity: at
most ord(g) candidates whatever p is.  A cover's covector is derived like
its genus: only the least such f is built, and only it verifies.
quotient_ske_from_cover builds the p*|Q| group as the monodromy of the p-fold
cover of X on Q x F_p and verifies the induced epimorphism on its own.
lift(cert, p) is one whole cover step, the cover and its quotient from one
homology action.  These calls and kernel_presentation take a certificate a
verifier returned and work in the group it holds: only the verifiers replay,
verify_cover_certificate its base first.
"""

from math import gcd
from typing import NamedTuple

from .groups import _check_order, construct, perm_group, perm_inv
from .linalg import nullspace_mod, rref_mod
from .signatures import Signature, is_prime, kernel_genus, relators
from .ske import (SKE, Schema, SkeCertificate, check_recorded, evaluate, verify_certificate,
                  verify_ske, write)


class NotSurfaceKernel(ValueError):
    """The kernel's first homology does not have the expected dimension."""


class NotInvariant(ValueError):
    """No hyperplane of the homology is preserved by the group action."""


class KernelPresentation(NamedTuple):
    """Cells of the cover X whose fundamental group is the kernel.

    Vertex c is certificate.group.elements[c]; edge column c*nslots + s runs
    from c to act[s][c].  relation_rows holds each distinct face once, tree
    columns 0.  tree lists a BFS spanning tree of forward edges as (vertex,
    parent, column), the edge running from parent to vertex.  homology_dim is
    2*kernel_genus, the dimension H_1(K; F_p) must have at every prime p.
    """

    certificate: SkeCertificate
    nslots: int
    act: list
    act_inv: list
    tree: tuple
    relation_rows: list
    ncols: int
    homology_dim: int

    def rewrite(self, word, start=0):
        """Edge chain of the path reading word from vertex start, plus its end."""
        vec = [0] * self.ncols
        c = start
        for s, sign in word:
            if sign == 1:
                vec[c * self.nslots + s] += 1
                c = self.act[s][c]
            else:
                c = self.act_inv[s][c]
                vec[c * self.nslots + s] -= 1
        return vec, c


def kernel_presentation(cert):
    """Cell complex of the kernel of a verified certificate, in its group.

    Its images generate Q, so the BFS tree spans X, and they satisfy the
    relators, so each relator read from a vertex ends there (tested).
    """
    group = cert.group
    elements = group.elements
    index = group.index
    n = group.order
    gens = cert.images
    nslots = len(gens)

    act = [[index[group.mul(e, x)] for e in elements] for x in gens]
    act_inv = [perm_inv(a) for a in act]

    seen = [False] * n
    seen[0] = True
    tree = []
    queue = [0]
    for c in queue:
        for s in range(nslots):
            nxt = act[s][c]
            if not seen[nxt]:
                seen[nxt] = True
                tree.append((nxt, c, c * nslots + s))
                queue.append(nxt)

    ncols = n * nslots
    pres = KernelPresentation(
        certificate=cert, nslots=nslots, act=act, act_inv=act_inv,
        tree=tuple(tree), relation_rows=[], ncols=ncols,
        homology_dim=2 * cert.kernel_genus,
    )
    # reading c_j^m from each vertex of one cycle gives the same face m times
    faces = dict.fromkeys(tuple(pres.rewrite(rel, start)[0])
                          for rel in relators(cert.signature) for start in range(n))
    tree_cols = {col for _, _, col in tree}
    rows = [[0 if col in tree_cols else v for col, v in enumerate(face)] for face in faces]
    return pres._replace(relation_rows=rows)


class HomologyAction(NamedTuple):
    """Matrices of the deck-transformation action of Q on H_1(kernel; F_p).

    cocycles is the basis of H^1(K; F_p), each 0 on the tree, 1 on its own
    free edge and 0 on the others' (the free edges depend on p).  Homology
    coordinates are the cocycle values, and coords(g_* z) = matrices[i] *
    coords(z) for the generator g = group.generators[i].  The generators
    determine the whole action, so a line fixed by every matrices[i] is fixed
    by Q.
    """

    presentation: KernelPresentation
    prime: int
    dim: int
    matrices: list
    cocycles: list


def homology_action(pres, p):
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    group = pres.certificate.group
    elements, index = group.elements, group.index
    nslots, act = pres.nslots, pres.act

    # the rows are zero on the tree columns: drop their unit vectors
    cocycles = [phi for phi in nullspace_mod(pres.relation_rows, pres.ncols, p)
                if not any(phi[col] for _, _, col in pres.tree)]
    dim = len(cocycles)
    if dim != pres.homology_dim:
        raise NotSurfaceKernel(
            f"first homology mod {p} has dimension {dim}, expected {pres.homology_dim}"
        )
    # nullspace_mod puts the 1 of each vector's own free column last and 0
    # in the others' free columns, so the basis is dual to these edges
    free = [max(j for j, v in enumerate(phi) if v) for phi in cocycles]

    def row(phi, left):
        # values of the translate (c, s) -> phi(g*c, s) on the free edges,
        # after subtracting the coboundary that makes it vanish on the tree
        def value(col):
            return phi[left[col // nslots] * nslots + col % nslots]

        pot = [0] * group.order
        for v, u, col in pres.tree:
            pot[v] = pot[u] + value(col)
        return [(value(col) + pot[col // nslots] - pot[act[col % nslots][col // nslots]]) % p
                for col in free]

    matrices = []
    for g in group.generators:
        left = [index[group.mul(g, e)] for e in elements]
        matrices.append([row(phi, left) for phi in cocycles])
    return HomologyAction(presentation=pres, prime=p, dim=dim, matrices=matrices,
                          cocycles=cocycles)


def _roots_of_unity(n, p):
    """The x in F_p with x**n == 1: a cyclic group of order e = gcd(n, p-1),
    closed up from the ((p-1)/e)-th powers of 2, 3, ..."""
    e = gcd(n, p - 1)
    roots, h = {1}, 2
    while len(roots) < e:
        z = pow(h, (p - 1) // e, p)
        while (grown := roots | {x * z % p for x in roots}) != roots:
            roots = grown
        h += 1
    return roots


def invariant_hyperplanes(action):
    """Least normalized covector of an invariant hyperplane, or None.

    Profiles of root-of-unity eigenvalues are explored with subspace pruning;
    the least normalized point of a common eigenspace is the last row of its
    reduced echelon basis, and the least over the eigenspaces is returned.
    """
    p, dim = action.prime, action.dim
    group = action.presentation.certificate.group
    mats = action.matrices
    leaves = []

    def descend(idx, constraints, space):
        if idx == len(mats):
            leaves.append(rref_mod(space, p)[0][-1])
            return
        m = mats[idx]
        for lam in _roots_of_unity(group.element_order(group.generators[idx]), p):
            # f*M = lam*f, i.e. (M^T - lam) f = 0
            rows = constraints + [[(m[j][i] - (lam if i == j else 0)) % p for j in range(dim)]
                                  for i in range(dim)]
            if sub := nullspace_mod(rows, dim, p):
                descend(idx + 1, rows, sub)

    descend(0, [], nullspace_mod([], dim, p))
    return min(leaves, default=None)


class CoverCertificate(NamedTuple):
    """A degree-p unramified cover on which the whole group action lifts;
    read from JSON, its covector is None until verify_cover_certificate
    rebuilds it, and its genus and group order p*|Q| are derived."""

    base: SkeCertificate
    prime: int
    covector: tuple = None

    @property
    def cover_group_order(self):
        return self.prime * self.base.group_order

    @property
    def cover_genus(self):
        return kernel_genus(self.base.signature, self.cover_group_order)

    def to_dict(self):
        return write(COVER, self)


COVER = Schema("cover", {"base": SKE, "prime": int},
               {"covector": [int], "cover_genus": int, "cover_group_order": int}, CoverCertificate)


def _hyperplane(cert, p, presentation=None):
    """The homology action mod p and its least invariant covector, else NotInvariant."""
    pres = presentation if presentation is not None else kernel_presentation(cert)
    action = homology_action(pres, p)
    if (covector := invariant_hyperplanes(action)) is None:
        raise NotInvariant(f"no invariant hyperplane mod {p} for {cert.signature} -> "
                           f"{cert.group.descriptor}")
    return action, covector


def lift(cert, p):
    """One cover step: (cover, quotient) for the least invariant hyperplane.

    One presentation and one homology action mod p serve both the cover
    record and its verified order p*|Q| quotient (quotient_ske_from_cover).
    NotInvariant when no hyperplane is invariant mod p.
    """
    action, covector = _hyperplane(cert, p)
    cover = CoverCertificate(cert, p, covector)
    return cover, _extension(action, covector, cover.cover_genus)


def build_cover(cert, p, presentation=None):
    """The cover certificate of the least invariant hyperplane mod p, its
    covector derived like its genus; NotInvariant when there is none."""
    return CoverCertificate(cert, p, _hyperplane(cert, p, presentation)[1])


def verify_cover_certificate(cover):
    """Rebuild a cover certificate from its base, replayed first, and its
    prime: only the least covector is rebuilt, so only it verifies."""
    return build_cover(verify_certificate(cover.base), cover.prime)


def quotient_ske_from_cover(cover, presentation=None):
    """Build the order p*|Q| quotient of the cover explicitly and re-verify.

    In the p-fold cover cut out by the covector f, edge s moves the point
    (c, x) of Q x F_p to (c*a_s, x + phi_f(c, s)), phi_f = sum f_i*cocycle_i.
    These monodromy permutations generate the extension of Q by F_p; their
    inverses go through verify_ske, so the returned certificate is independent
    evidence that the cover carries the claimed automorphism count.

    The cover's base is a certificate a verifier returned.  The quotient is
    built on the least invariant covector, and a cover stating another is
    refused first; the quotient's kernel genus is checked against the cover's
    after.  The kernel genus is strictly increasing in the group order, so
    against a cover genus computed at order p*|Q| that check also refuses an
    extension of any other order.
    """
    action, f = _hyperplane(cover.base, cover.prime, presentation)
    check_recorded({"covector": list(cover.covector)}, {"covector": list(f)})
    return _extension(action, f, cover.cover_genus)


def _extension(action, f, cover_genus):
    """The verified monodromy quotient for the invariant covector f, whose
    kernel genus must be the stated cover_genus."""
    pres = action.presentation
    cert, p = pres.certificate, action.prime
    n, nslots = cert.group.order, pres.nslots
    # the extension has order n*p: refuse it before its point lists exist
    _check_order(f"extension of {cert.group.descriptor} by F_{p}", (n, p))
    phi = [sum(fi * v[col] for fi, v in zip(f, action.cocycles)) % p
           for col in range(pres.ncols)]
    # point (c, x) is c*p + x.  Reading a word moves points by a right
    # action, so under (x*y)[i] = x[y[i]] the inverse permutations compose
    # as a homomorphism; images[s] sends the end of edge s back to its start.
    degree = n * p
    images = []
    for s in range(nslots):
        perm = [0] * degree
        for c in range(n):
            end, shift = pres.act[s][c] * p, phi[c * nslots + s]
            for x in range(p):
                perm[end + (x + shift) % p] = c * p + x
        images.append(tuple(perm))
    quotient = verify_ske(cert.signature, perm_group(degree, images), tuple(images))
    if quotient.kernel_genus != cover_genus:
        raise RuntimeError("quotient kernel genus disagrees with the cover")
    return quotient


# A case lifts mod p (has a Q-invariant hyperplane in H_1(K; F_p)) exactly
# when p = lift_prime or p = 1 (mod modulus).  Among the primes dividing |Q|
# only lift_prime lifts.  For p not dividing |Q|, by Chevalley-Weil (Abh.
# Math. Sem. Hamburg 10, 1934) a genus-0 case lifts exactly when a linear
# character of Q of order dividing p - 1 is non-trivial on all three
# elliptic images; modulus is None when no character is.  The tests derive
# both integers from the images and check them against the homology.
class CoverCase(NamedTuple):
    """A genus-2 epimorphism and the two integers saying where it lifts."""

    label: str
    signature: Signature
    group_descriptor: str
    image_exponents: tuple
    tested_primes: tuple
    lift_prime: int
    modulus: int | None

    def condition_holds(self, p):
        return p == self.lift_prime or self.modulus is not None and p % self.modulus == 1

    @property
    def condition(self):
        text = f"p = {self.lift_prime}"
        return text if self.modulus is None else f"{text} or p = 1 (mod {self.modulus})"

    @property
    def expected_primes(self):
        return tuple(p for p in self.tested_primes if self.condition_holds(p))


GENUS2_COVER_CASES = (
    CoverCase("a", Signature(0, (2, 8, 8)), "cyclic:8", ((4,), (1,), (3,)),
              (2, 3, 5, 7, 11, 13, 17), 2, 8),
    CoverCase("b", Signature(0, (4, 4, 4)), "Q8", ((1, 0), (0, 1), (3, 1)),
              (2, 3, 5, 7, 11, 13, 17), 2, None),
    CoverCase("c", Signature(0, (2, 4, 8)), "SD16", ((0, 1), (1, 1), (5, 0)),
              (2, 3, 5, 7, 11, 13, 17), 2, None),
    CoverCase("d", Signature(0, (5, 5, 5)), "cyclic:5", ((1,), (1,), (3,)),
              (2, 3, 5, 7, 11, 13), 5, 5),
    CoverCase("e", Signature(0, (2, 5, 10)), "cyclic:10", ((5,), (2,), (3,)),
              (3, 5, 7, 11), 5, 10),
    CoverCase("f", Signature(0, (3, 6, 6)), "cyclic:6", ((2,), (5,), (5,)),
              (2, 3, 5, 7, 11, 13), 3, 6),
    CoverCase("g", Signature(0, (2, 6, 6)), "C6*C2", ((3, 1), (1, 0), (2, 1)),
              (3, 5, 7, 13), 3, 6),
)


def case_by_label(label):
    """The frozen cover case with this label; ValueError names the labels."""
    for case in GENUS2_COVER_CASES:
        if case.label == label:
            return case
    raise ValueError(f"unknown cover case {label!r}; have "
                     + " ".join(c.label for c in GENUS2_COVER_CASES))


def case_certificate(case):
    """Verified genus-2 epimorphism for one of the frozen cover cases."""
    group = construct(case.group_descriptor)
    words = [[(i, 1) for i, e in enumerate(exps) for _ in range(e)]
             for exps in case.image_exponents]
    return verify_ske(case.signature, group,
                      tuple(evaluate(group, word, group.generators) for word in words))


def check_cover_cases(primes=None):
    """Compare liftable primes against the predicted sets, case by case.

    Returns one report per case: the primes actually admitting an invariant
    hyperplane (at each case's tested primes, or at primes when given), the
    predicted set, and whether they agree.
    """
    reports = []
    for case in GENUS2_COVER_CASES:
        # each prime once, in the order given
        tested = tuple(dict.fromkeys(primes)) if primes is not None else case.tested_primes
        cert = case_certificate(case)
        pres = kernel_presentation(cert)
        with_hyperplane = [p for p in tested
                           if invariant_hyperplanes(homology_action(pres, p)) is not None]
        expected = [p for p in tested if case.condition_holds(p)]
        reports.append({
            "case": case.label,
            "signature": str(case.signature),
            "group": case.group_descriptor,
            "condition": case.condition,
            "primes": list(tested),
            "with_hyperplane": with_hyperplane,
            "expected": expected,
            "match": with_hyperplane == expected,
        })
    return reports
