import json
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

from surfbound.bounds import certify_genus, small_genus_catalog
from surfbound.covers import (
    COVER,
    GENUS2_COVER_CASES,
    CoverCertificate,
    KernelPresentation,
    NotInvariant,
    NotSurfaceKernel,
    _extension,
    build_cover,
    case_certificate,
    check_cover_cases,
    homology_action,
    invariant_hyperplanes,
    kernel_presentation,
    lift,
    quotient_ske_from_cover,
    verify_cover_certificate,
)
from surfbound.groups import construct
from surfbound.linalg import (
    cokernel_invariants,
    identity_matrix,
    mat_mul_mod,
    nullspace_mod,
)
from surfbound import signatures
from surfbound.signatures import Signature, is_prime, parse_signature
from surfbound.ske import (dihedral_witness_ske, read, replay, search_ske, verify_certificate,
                           verify_ske)

CASES = {case.label: case for case in GENUS2_COVER_CASES}


def v4_presentation():
    return kernel_presentation(dihedral_witness_ske(2))


def case_g_quotient_at_3():
    # order 36, kernel genus 4: the first rung past the genus-2 cases
    return quotient_ske_from_cover(build_cover(case_certificate(CASES["g"]), 3))


def first_epimorphism(text, descriptor):
    sig, group = parse_signature(text), construct(descriptor)
    return verify_ske(sig, group, search_ske(sig, group, mode="first"))


# the seven cases, the V4 and D8 dihedral witnesses, and the order-36 rung
CERTIFICATES = sorted(CASES) + ["V4", "D8", "g-mod-3"]
# bases of genus >= 1, whose long relation has commutators
HIGHER_GENUS = {"(1;2)->Q8": ("g1p2", "Q8"), "(1;2,2)->D4": ("g1p2,2", "D4"),
                "(2;)->C2": ("g2", "C2")}


def certificate(name):
    if name in HIGHER_GENUS:
        return first_epimorphism(*HIGHER_GENUS[name])
    return {
        "V4": lambda: dihedral_witness_ske(2),
        "D8": lambda: dihedral_witness_ske(5),
        "g-mod-3": case_g_quotient_at_3,
    }.get(name, lambda: case_certificate(CASES[name]))()


def relators(sig):
    # the defining relators in kernel_presentation's order: the elliptic
    # powers, then the long relation
    g, periods = sig.genus, sig.periods
    words = [((2 * g + j, 1),) * m for j, m in enumerate(periods)]
    long_word = []
    for i in range(g):
        long_word += [(2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1)]
    return words + [tuple(long_word + [(2 * g + j, 1) for j in range(len(periods))])]


def tree_columns(pres):
    return {col for _, _, col in pres.tree}


def ncols(pres):
    # one edge column per vertex and generator slot
    return pres.certificate.group.order * len(pres.certificate.images)


def rewrite(pres, word, start):
    """Oracle: the edge chain of the path reading word from vertex start,
    plus its end.  An inverse letter steps back along an edge of act, found
    by search, so no inverse table of the runtime is read."""
    nslots = len(pres.certificate.images)
    vec, c = [0] * ncols(pres), start
    for s, sign in word:
        if sign == 1:
            vec[c * nslots + s] += 1
            c = pres.act[s][c]
        else:
            c = pres.act[s].index(c)
            vec[c * nslots + s] -= 1
    return vec, c


def distinct_faces(pres):
    """Oracle: each face once, tree columns zeroed.  c_j^m read from any
    vertex of one cycle of a_j is one face, kept at the cycle's least vertex;
    the long relation gives a face at every vertex."""
    sig = pres.certificate.signature
    tree = tree_columns(pres)
    faces = []
    for j, word in enumerate(relators(sig)):
        for start in range(pres.certificate.group.order):
            if j < len(sig.periods):
                cycle, c = [start], pres.act[2 * sig.genus + j][start]
                while c != start:
                    cycle.append(c)
                    c = pres.act[2 * sig.genus + j][c]
                if start != min(cycle):
                    continue
            vec = rewrite(pres, word, start)[0]
            faces.append([0 if col in tree else v for col, v in enumerate(vec)])
    return faces


def unit_row_system(pres):
    """The system kernel_presentation once built: every relator read from
    every vertex, then one unit row per tree edge."""
    rows = [rewrite(pres, word, start)[0] for word in relators(pres.certificate.signature)
            for start in range(pres.certificate.group.order)]
    units = [[int(col == t) for col in range(ncols(pres))] for t in sorted(tree_columns(pres))]
    return rows + units


def full_action(action):
    """Oracle: M_q for every q in Q, each from its own deck translate.

    Checks that the generator entries are action.matrices, that M_e = I and
    that M_{q*g} = M_q*M_g for every q and generator g.
    """
    pres, p = action.presentation, action.prime
    group, nslots, act = pres.certificate.group, len(pres.certificate.images), pres.act
    free = [max(j for j, v in enumerate(phi) if v) for phi in action.cocycles]

    def row(phi, left):
        # phi(q*c, s) on the free edges, minus the coboundary vanishing on the tree
        def value(col):
            return phi[left[col // nslots] * nslots + col % nslots]

        pot = [0] * group.order
        for v, u, col in pres.tree:
            pot[v] = pot[u] + value(col)
        return [(value(col) + pot[col // nslots] - pot[act[col % nslots][col // nslots]]) % p
                for col in free]

    mats = {}
    for q in group.elements:
        left = [group.index[group.mul(q, e)] for e in group.elements]
        mats[q] = [row(phi, left) for phi in action.cocycles]
    assert [mats[g] for g in group.generators] == action.matrices
    assert mats[group.identity] == identity_matrix(action.dim)
    for q in group.elements:
        for g in group.generators:
            assert mat_mul_mod(mats[q], mats[g], p) == mats[group.mul(q, g)]
    return mats


def vec_mat_mod(vec, m, p):
    # the row action f*M over F_p, on covectors; nothing in the package needs it
    return tuple(sum(vec[i] * m[i][j] for i in range(len(vec))) % p for j in range(len(m[0])))


def brute_invariant_covectors(action):
    # independent oracle: test every normalized covector against every M_q
    p, dim = action.prime, action.dim
    mats = full_action(action).values()
    out = []
    for lead in range(dim):
        for rest in product(range(p), repeat=dim - lead - 1):
            f = (0,) * lead + (1,) + rest
            images = [vec_mat_mod(f, m, p) for m in mats]
            if all(img == tuple(img[lead] * v % p for v in f) for img in images):
                out.append(f)
    return sorted(out)


def scanned_invariant_covectors(action):
    """Oracle: the search invariant_hyperplanes replaced.  Every eigenvalue
    1..p-1 of each generator matrix is tried, and every point of each common
    eigenspace is listed; the covectors come back sorted."""
    p, dim, mats = action.prime, action.dim, action.matrices
    found = set()

    def descend(idx, constraints):
        if idx == len(mats):
            basis = nullspace_mod(constraints, dim, p)
            for lead in range(len(basis)):
                for rest in product(range(p), repeat=len(basis) - lead - 1):
                    f = [sum(c * v[i] for c, v in zip((1,) + rest, basis[lead:])) % p
                         for i in range(dim)]
                    inv = pow(next(v for v in f if v), -1, p)
                    found.add(tuple(v * inv % p for v in f))
            return
        for lam in range(1, p):
            rows = constraints + [[(mats[idx][j][i] - (lam if i == j else 0)) % p
                                   for j in range(dim)] for i in range(dim)]
            if nullspace_mod(rows, dim, p):
                descend(idx + 1, rows)

    descend(0, [])
    return sorted(found)


def assert_least_of_scan(action):
    assert invariant_hyperplanes(action) == min(
        scanned_invariant_covectors(action), default=None), action.prime


def assert_integer_homology_is_free(pres):
    # integer oracle: contracting the tree leaves one vertex, so the faces on
    # the non-tree columns present H_1(K; Z) itself
    tree = tree_columns(pres)
    keep = [col for col in range(ncols(pres)) if col not in tree]
    rows = [[row[col] for col in keep] for row in pres.relation_rows]
    assert cokernel_invariants(rows, len(keep)) == (2 * pres.certificate.kernel_genus, ())


# the seven cases, the six bases of the benchmark's cover ladder (a case
# lifted at a prime), and three dihedral witnesses
ACT_BASES = ([(label, lambda label=label: case_certificate(CASES[label])) for label in sorted(CASES)]
             + [(f"{label}-mod-{p}", lambda label=label, p=p: lift(case_certificate(CASES[label]), p)[1])
                for label, p in [("b", 2), ("c", 2), ("g", 3), ("f", 7), ("e", 5), ("g", 7)]]
             + [(f"dihedral-{g}", lambda g=g: dihedral_witness_ske(g)) for g in (2, 5, 9)])


class TestKernelPresentation:
    def test_holds_only_what_costs_a_rebuild(self):
        # the slot and column counts and the expected dimension are read
        # from the certificate, and the inverse letters are a local step
        assert KernelPresentation._fields == ("certificate", "act", "tree", "relation_rows")

    def test_v4_quintuple_shape(self):
        pres = v4_presentation()
        assert ncols(pres) == 4 * 5
        assert 2 * pres.certificate.kernel_genus == 4
        assert_integer_homology_is_free(pres)

    def test_schreier_count_invariant(self):
        # Euler count: the free edges number 1 + |Q|*(nslots - 1)
        for label in ("a", "b", "d", "g"):
            cert = case_certificate(CASES[label])
            pres = kernel_presentation(cert)
            n = pres.certificate.group.order
            assert ncols(pres) - len(pres.tree) == 1 + n * (len(cert.images) - 1)

    def test_tree_spans_every_vertex(self):
        for name in CERTIFICATES:
            pres = kernel_presentation(certificate(name))
            n = pres.certificate.group.order
            assert len(pres.tree) == n - 1, name
            assert {v for v, _, _ in pres.tree} == set(range(1, n)), name
            for v, u, col in pres.tree:
                c, s = divmod(col, len(pres.certificate.images))
                assert (c, pres.act[s][c]) == (u, v)

    @pytest.mark.parametrize("name", CERTIFICATES)
    def test_every_relator_closes_at_every_vertex(self, name):
        # each relator read from each vertex ends where it starts, and the
        # rows are the distinct faces with the tree columns zeroed
        pres = kernel_presentation(certificate(name))
        for word in relators(pres.certificate.signature):
            for start in range(pres.certificate.group.order):
                assert rewrite(pres, word, start)[1] == start, (word, start)
        assert pres.relation_rows == distinct_faces(pres)

    def test_all_cases_have_genus_two_homology(self):
        for case in GENUS2_COVER_CASES:
            pres = kernel_presentation(case_certificate(case))
            assert 2 * pres.certificate.kernel_genus == 4
            assert_integer_homology_is_free(pres)

    def test_rewrite_round_trip(self):
        pres = v4_presentation()
        # a relator rewritten from any start coset comes back to it
        vec, end = rewrite(pres, ((0, 1), (0, 1)), start=2)
        assert end == 2

    def test_torsion_rejected(self):
        # 3-torsion in the integer homology shows up as extra dimension mod
        # 3, against the 2*kernel_genus the certificate gives
        pres = v4_presentation()
        torsion = pres._replace(relation_rows=[[3 * v for v in row]
                                               for row in pres.relation_rows])
        assert homology_action(torsion, 5).dim == 4
        with pytest.raises(NotSurfaceKernel) as err:
            homology_action(torsion, 3)
        assert str(err.value) == "first homology mod 3 has dimension 17, expected 4"

    def test_wrong_rank_rejected(self):
        # a unit row on one cocycle's free edge kills that cocycle: rank 3
        # against the 2*kernel_genus = 4 the certificate gives
        pres = v4_presentation()
        free = max(j for j, v in enumerate(homology_action(pres, 7).cocycles[0]) if v)
        unit = [int(col == free) for col in range(ncols(pres))]
        altered = pres._replace(relation_rows=pres.relation_rows + [unit])
        with pytest.raises(NotSurfaceKernel) as err:
            homology_action(altered, 7)
        assert str(err.value) == "first homology mod 7 has dimension 3, expected 4"

    @pytest.mark.parametrize("build", [b for _, b in ACT_BASES], ids=[n for n, _ in ACT_BASES])
    def test_builds_no_group_and_replays_nothing(self, monkeypatch, build):
        # the certificate a verifier returned holds its group: the
        # presentation neither rebuilds it nor replays the certificate
        import surfbound.covers as covers_module
        import surfbound.ske as ske_module

        cert = build()
        seen = []
        for module in (covers_module, ske_module):
            for name in ("construct", "verify_certificate", "verify_ske"):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, name=name, original=original:
                                    seen.append(name) or original(*a))
        pres = kernel_presentation(cert)
        assert seen == []

    @pytest.mark.parametrize("genus", range(4))
    def test_signatures_relators_are_the_oracle(self, genus):
        # the one statement of the presentation, against the words written
        # out here, for up to 4 periods in 2..9
        for k in range(5):
            for periods in combinations_with_replacement(range(2, 10), k):
                sig = Signature(genus, periods)
                assert signatures.relators(sig) == relators(sig), sig
                assert signatures.long_relator(sig) == relators(sig)[-1], sig

    @pytest.mark.parametrize("build", [b for _, b in ACT_BASES], ids=[n for n, _ in ACT_BASES])
    def test_act_inv_inverts_act(self, build):
        # act[s] is c -> c * a_s, and the oracle's inverse step along it is
        # c -> c * a_s^-1; the runtime's inverse letters are checked by
        # TestUnitRowOracle on the HIGHER_GENUS bases
        pres = kernel_presentation(build())
        group = pres.certificate.group
        elements = group.elements
        assert len(pres.act) == len(pres.certificate.images)
        for s, (x, forward) in enumerate(zip(pres.certificate.images, pres.act)):
            assert list(forward) == [group.index[group.mul(e, x)] for e in elements]
            back = [rewrite(pres, ((s, -1),), c)[1] for c in range(group.order)]
            assert back == [group.index[group.mul(e, group.inv(x))] for e in elements]


class TestUnitRowOracle:
    """The faces alone, tree columns zeroed, against the former system of
    every face read from every vertex plus one unit row per tree edge: its
    row space is the unit rows' span plus the new rows', so the free
    columns, the cocycles, the matrices and the hyperplanes are the same."""

    @pytest.mark.parametrize("name", CERTIFICATES + sorted(HIGHER_GENUS))
    def test_same_homology_below_50(self, name):
        pres = kernel_presentation(certificate(name))
        cert, tree = pres.certificate, tree_columns(pres)
        sig, n = cert.signature, cert.group.order
        assert len(pres.relation_rows) == sum(n // m for m in sig.periods) + n
        assert not any(row[col] for row in pres.relation_rows for col in tree)
        old = pres._replace(relation_rows=unit_row_system(pres))
        for p in filter(is_prime, range(50)):
            new_action, old_action = homology_action(pres, p), homology_action(old, p)
            assert new_action.cocycles == old_action.cocycles == nullspace_mod(
                old.relation_rows, ncols(pres), p), (name, p)
            assert new_action.matrices == old_action.matrices, (name, p)
            assert invariant_hyperplanes(new_action) == invariant_hyperplanes(old_action)


class TestHomologyAction:
    def test_identity_acts_trivially(self):
        pres = v4_presentation()
        action = homology_action(pres, 23)
        assert full_action(action)[pres.certificate.group.identity] == identity_matrix(4)
        assert action.dim == 4

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            homology_action(v4_presentation(), 6)

    def test_cyclic_case_power_relation(self):
        cert = case_certificate(CASES["d"])
        pres = kernel_presentation(cert)
        action = homology_action(pres, 11)
        m = identity_matrix(4)
        for _ in range(5):
            m = mat_mul_mod(m, action.matrices[0], 11)
        assert m == identity_matrix(4)

    @pytest.mark.parametrize("name", CERTIFICATES)
    def test_cocycle_basis_dual_to_free_edges(self, name):
        # each cocycle is 1 on its own free (last nonzero) edge, 0 on the
        # other cocycles' free edges and on the tree, and kills every face
        pres = kernel_presentation(certificate(name))
        tree = tree_columns(pres)
        for p in (2, 3, 5, 7, 11):
            cocycles = homology_action(pres, p).cocycles
            free = [max(j for j, v in enumerate(phi) if v) for phi in cocycles]
            assert [[phi[j] for j in free] for phi in cocycles] == identity_matrix(len(free))
            for phi in cocycles:
                assert not any(phi[col] for col in tree), (name, p)
                assert all(sum(r * v for r, v in zip(row, phi)) % p == 0
                           for row in pres.relation_rows), (name, p)

    @pytest.mark.parametrize("name", CERTIFICATES)
    def test_lefschetz_trace_formula(self, name):
        # basis-free check of every matrix: tr M_q = 2 - |Fix(q)| for q != 1,
        # with the fixed points of q counted over the cone points (Eichler)
        cert = certificate(name)
        pres = kernel_presentation(cert)
        group = pres.certificate.group
        ell = cert.images[2 * cert.signature.genus:]
        fixed = {}
        for q in group.elements:
            total = 0
            for c, m in zip(ell, cert.signature.periods):
                powers = {group.identity}
                x = c
                while x != group.identity:
                    powers.add(x)
                    x = group.mul(x, c)
                hits = sum(group.mul(group.mul(group.inv(x), q), x) in powers
                           for x in group.elements)
                assert hits % m == 0
                total += hits // m
            fixed[q] = total
        for p in (2, 3, 5, 7, 11):
            action = homology_action(pres, p)
            for q, mat in full_action(action).items():
                trace = sum(mat[i][i] for i in range(action.dim))
                expected = 2 * cert.kernel_genus if q == group.identity else 2 - fixed[q]
                assert (trace - expected) % p == 0, (name, p, q)


class TestInvariantHyperplanes:
    BRUTE_COMPARISONS = [
        ("a", 2), ("a", 3), ("a", 5), ("a", 17),
        ("b", 2), ("b", 3), ("c", 2), ("c", 5),
        ("d", 5), ("d", 11), ("d", 7),
        ("e", 5), ("e", 11), ("f", 7), ("f", 13),
        ("g", 3), ("g", 7),
    ]

    @pytest.mark.parametrize("label,p", BRUTE_COMPARISONS)
    def test_primary_matches_brute(self, label, p):
        pres = kernel_presentation(case_certificate(CASES[label]))
        action = homology_action(pres, p)
        fast = invariant_hyperplanes(action)
        assert fast == min(brute_invariant_covectors(action), default=None)

    def test_v4_at_23_matches_brute(self):
        action = homology_action(v4_presentation(), 23)
        fast = invariant_hyperplanes(action)
        assert fast == min(brute_invariant_covectors(action), default=None)
        assert fast is not None
        assert_least_of_scan(action)

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_cases_match_scan_below_100(self, label):
        pres = kernel_presentation(case_certificate(CASES[label]))
        for p in filter(is_prime, range(100)):
            assert_least_of_scan(homology_action(pres, p))

    @pytest.mark.parametrize("label,base_prime,order", [("g", 3, 36), ("g", 7, 84)])
    def test_ladder_quotients_match_scan(self, label, base_prime, order):
        quotient = quotient_ske_from_cover(build_cover(case_certificate(CASES[label]), base_prime))
        assert quotient.group_order == order
        pres = kernel_presentation(quotient)
        for p in (2, 3, 5, 7, 11, 13):
            assert_least_of_scan(homology_action(pres, p))

    def test_work_does_not_grow_with_p(self, monkeypatch):
        # case f is cyclic of order 6 and each p is 1 mod 6, so every
        # generator has the same six candidate eigenvalues at each p
        pres = kernel_presentation(case_certificate(CASES["f"]))
        actions = [homology_action(pres, p) for p in (7, 103, 1000000000039)]
        calls = []
        monkeypatch.setattr("surfbound.covers.nullspace_mod",
                            lambda *args: calls.append(args) or nullspace_mod(*args))
        counts = []
        for action in actions:
            calls.clear()
            assert invariant_hyperplanes(action) is not None
            counts.append(len(calls))
            # compared at once: a search over F_p would not end at 10**12 + 39
            assert counts[-1] == counts[0], (action.prime, counts)

    def test_vec_mat_is_row_action(self):
        # the oracle's product is (1, 1) times the rows, not the rows times (1, 1)
        assert vec_mat_mod([1, 1], [[1, 2], [3, 4]], 5) == (4, 1)


class TestCoverCases:
    def test_all_case_certificates_verify(self):
        for case in GENUS2_COVER_CASES:
            cert = case_certificate(case)
            assert cert.kernel_genus == 2
            verify_certificate(cert)

    def test_images_are_the_generator_powers(self):
        # image j is the product of the group's generators, each raised to
        # its exponent in image_exponents[j], in generator order
        for case in GENUS2_COVER_CASES:
            group = construct(case.group_descriptor)
            expected = []
            for exps in case.image_exponents:
                img = group.identity
                for gen, e in zip(group.generators, exps):
                    for _ in range(e):
                        img = group.mul(img, gen)
                expected.append(img)
            assert case_certificate(case).images == tuple(expected), case.label

    def test_full_report_matches_predictions(self):
        reports = check_cover_cases()
        assert len(reports) == 7
        for report in reports:
            assert report["match"], report
            assert report["with_hyperplane"] == report["expected"]

    def test_custom_primes(self):
        report = check_cover_cases(primes=(7, 11, 19))[5]
        assert report["case"] == "f"
        assert report["with_hyperplane"] == [7, 19]
        assert report["expected"] == [7, 19]

    def test_repeated_primes_kept_once(self):
        reports = check_cover_cases(primes=(2, 2, 7, 3, 7))
        assert reports == check_cover_cases(primes=(2, 7, 3))
        assert [r["primes"] for r in reports] == [[2, 7, 3]] * 7


def linear_characters(group):
    """Every homomorphism Q -> Z/|Q|, as its values on group.generators.

    A candidate is walked over the Cayley graph from the identity and kept
    when every edge x -> x*g adds the value of g consistently."""
    n = group.order
    out = []
    for values in product(range(n), repeat=len(group.generators)):
        chi = {group.identity: 0}
        queue = [group.identity]
        consistent = True
        for x in queue:
            for g, v in zip(group.generators, values):
                y, w = group.mul(x, g), (chi[x] + v) % n
                if y not in chi:
                    chi[y] = w
                    queue.append(y)
                elif chi[y] != w:
                    consistent = False
        if consistent:
            out.append(values)
    return out


def lifting_orders(case):
    """Orders of the linear characters of Q that are non-trivial on all
    three elliptic images: by Chevalley-Weil each occurs once in
    H_1(K; C), so for p not dividing |Q| the case lifts mod p exactly when
    one of these orders divides p - 1."""
    group = construct(case.group_descriptor)
    n = group.order
    return {n // gcd(n, *values) for values in linear_characters(group)
            if all(sum(e * v for e, v in zip(exps, values)) % n
                   for exps in case.image_exponents)}


class TestChevalleyWeil:
    def test_lifting_character_orders(self):
        orders = {case.label: lifting_orders(case) for case in GENUS2_COVER_CASES}
        assert orders == {"a": {8}, "b": set(), "c": set(), "d": {5}, "e": {10},
                          "f": {3, 6}, "g": {6}}

    def test_congruences_match_characters(self):
        pairs = 0
        for case in GENUS2_COVER_CASES:
            orders = lifting_orders(case)
            order = construct(case.group_descriptor).order
            assert order % case.lift_prime == 0
            assert (case.modulus is None) == (not orders)
            for p in filter(is_prime, range(2000)):
                if order % p:
                    pairs += 1
                    assert case.condition_holds(p) == any((p - 1) % d == 0 for d in orders), \
                        (case.label, p)
        assert pairs == 2111

    def test_homology_matches_congruences_below_300(self):
        # every prime dividing some |Q| (2, 3, 5) is below 300
        primes = list(filter(is_prime, range(300)))
        reports = check_cover_cases(primes=primes)
        for report in reports:
            case = CASES[report["case"]]
            assert report["with_hyperplane"] == [p for p in primes if case.condition_holds(p)]
        lifted = {r["case"]: r["with_hyperplane"] for r in reports}
        # no tested_primes reaches these: e (|Q| = 10) and g (|Q| = 12) do not lift at 2
        assert 2 not in lifted["e"] and 2 not in lifted["g"]

    def test_expected_primes(self):
        # the condition texts are pinned by tests/golden/cover-check.txt
        assert {c.label: c.expected_primes for c in GENUS2_COVER_CASES} == {
            "a": (2, 17), "b": (2,), "c": (2,), "d": (5, 11), "e": (5, 11),
            "f": (3, 7, 13), "g": (3, 7, 13),
        }


class TestBuildCover:
    def test_v4_mod_23_gives_genus_24(self):
        cert = dihedral_witness_ske(2)
        cover = build_cover(cert, 23)
        assert cover.cover_genus == 24
        assert cover.cover_group_order == 92

    def test_no_hyperplane_raises(self):
        cert = case_certificate(CASES["b"])
        with pytest.raises(NotInvariant, match="no invariant hyperplane"):
            build_cover(cert, 3)

    def test_non_invariant_covector_rejected(self):
        cert = case_certificate(CASES["d"])
        action = homology_action(kernel_presentation(cert), 11)
        good = set(brute_invariant_covectors(action))
        bad = next(
            f for f in ((1, c2, c3, c4)
                        for c2 in range(11) for c3 in range(11) for c4 in range(11))
            if f not in good
        )
        forged = build_cover(cert, 11)._replace(covector=bad)
        with pytest.raises(ValueError, match="certificate states covector"):
            replay(verify_cover_certificate, forged, forged.to_dict())

    def test_round_trip_and_replay(self):
        cert = case_certificate(CASES["d"])
        cover = build_cover(cert, 5)
        data = json.loads(json.dumps(cover.to_dict(), sort_keys=True))
        back = read(COVER, data)
        # the record read holds the base built; the covector costs a rebuild
        assert back == CoverCertificate(cert, cover.prime)
        assert replay(verify_cover_certificate, back, data) == cover

    def test_tampered_genus_rejected(self):
        cover = build_cover(case_certificate(CASES["d"]), 5)
        data = cover.to_dict()
        data["cover_genus"] = 7
        with pytest.raises(ValueError, match="cover genus"):
            replay(verify_cover_certificate, read(COVER, data), data)


class TestQuotient:
    def test_case_a_mod_2_end_to_end(self):
        cert = case_certificate(CASES["a"])
        cover = build_cover(cert, 2)
        quotient = quotient_ske_from_cover(cover)
        assert quotient.group_order == 16
        assert quotient.kernel_genus == 3
        assert quotient.signature == cert.signature
        verify_certificate(quotient)

    def test_case_b_mod_2_end_to_end(self):
        # Q8 is not abelian: the images must compose in the group's convention
        cert = case_certificate(CASES["b"])
        quotient = quotient_ske_from_cover(build_cover(cert, 2))
        assert quotient.group_order == 16
        assert quotient.kernel_genus == 3
        verify_certificate(quotient)

    def test_case_d_mod_5_end_to_end(self):
        cert = case_certificate(CASES["d"])
        cover = build_cover(cert, 5)
        quotient = quotient_ske_from_cover(cover)
        assert quotient.group_order == 25
        assert quotient.kernel_genus == 6

    def test_v4_mod_23_end_to_end(self):
        cert = dihedral_witness_ske(2)
        cover = build_cover(cert, 23)
        quotient = quotient_ske_from_cover(cover)
        assert quotient.group_order == 92
        assert quotient.kernel_genus == 24
        verify_certificate(quotient)

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_extension_order_below_50(self, label):
        cert = case_certificate(CASES[label])
        pres = kernel_presentation(cert)
        lifting = [p for p in range(50) if is_prime(p) and CASES[label].condition_holds(p)]
        assert lifting
        for p in lifting:
            cover = build_cover(cert, p, presentation=pres)
            quotient = quotient_ske_from_cover(cover, presentation=pres)
            assert quotient.group_order == cover.cover_group_order == p * cert.group_order

    def test_other_invariant_covector_refused(self):
        # (1, 2, 3, 1) is invariant too, but the cover states the least one
        cert = case_certificate(CASES["g"])
        invariant = brute_invariant_covectors(homology_action(kernel_presentation(cert), 7))
        assert invariant[0] == (1, 1, 5, 3) and (1, 2, 3, 1) in invariant
        cover = build_cover(cert, 7)
        with pytest.raises(ValueError, match=r"states covector\[1\] 2, recomputed 1"):
            quotient_ske_from_cover(cover._replace(covector=(1, 2, 3, 1)))

    def test_tampered_cover_genus_refused(self):
        # the cover genus is derived, so the extension is given a wrong one
        cover = build_cover(case_certificate(CASES["d"]), 5)
        action = homology_action(kernel_presentation(cover.base), 5)
        with pytest.raises(RuntimeError) as err:
            _extension(action, cover.covector, cover.cover_genus + 1)
        assert str(err.value) == "quotient kernel genus disagrees with the cover"

    def test_iterated_cover_presentation(self):
        # genus-4 kernel from case g at p = 3; its own presentation has rank 8
        quotient = case_g_quotient_at_3()
        assert quotient.group_order == 36
        assert quotient.kernel_genus == 4
        pres = kernel_presentation(quotient)
        assert homology_action(pres, 3).dim == 8
        assert_integer_homology_is_free(pres)


def dict_bytes(record):
    return json.dumps(record.to_dict(), sort_keys=True).encode()


class TestLift:
    # every case at each lifting prime below 50, then the genus-22 chain:
    # case g at 3, and its order-36 quotient at 7
    STEPS = [(label, p) for label in sorted(CASES) for p in range(50)
             if is_prime(p) and CASES[label].condition_holds(p)] + [("g-mod-3", 7)]

    @pytest.mark.parametrize("label,p", STEPS, ids=[f"{c}-{p}" for c, p in STEPS])
    def test_same_as_build_then_quotient(self, label, p):
        cert = case_g_quotient_at_3() if label == "g-mod-3" else case_certificate(CASES[label])
        cover, quotient = lift(cert, p)
        two_step = build_cover(cert, p)
        assert dict_bytes(cover) == dict_bytes(two_step)
        assert dict_bytes(quotient) == dict_bytes(quotient_ske_from_cover(two_step))

    def test_no_hyperplane_raises(self):
        with pytest.raises(NotInvariant, match="no invariant hyperplane mod 3"):
            lift(case_certificate(CASES["d"]), 3)

    # genus 22 lifts case g at 3 then at 7; the catalog takes 10 cover steps
    @pytest.mark.parametrize("run,calls", [(lambda: certify_genus(22), 2),
                                           (small_genus_catalog, 10)],
                             ids=["certify-22", "catalog"])
    def test_one_homology_action_per_cover_step(self, monkeypatch, run, calls):
        import surfbound.covers as covers

        seen = []
        action = covers.homology_action
        monkeypatch.setattr(covers, "homology_action",
                            lambda pres, p: seen.append(p) or action(pres, p))
        run()
        assert len(seen) == calls

    # the catalog verifies 22 dihedral, 14 searched and 9 genus-2 case
    # witnesses, and the quotient of each of its 10 cover steps; cover
    # --check verifies the 7 cases.  Nothing is replayed in-process.
    @pytest.mark.parametrize("run,calls", [(small_genus_catalog, 55),
                                           (check_cover_cases, 7)],
                             ids=["catalog", "cover-check"])
    def test_one_verify_ske_per_certificate_built(self, monkeypatch, run, calls):
        import surfbound.bounds as bounds_module
        import surfbound.covers as covers_module
        import surfbound.ske as ske_module

        seen = []
        verify = ske_module.verify_ske
        for module in (bounds_module, covers_module, ske_module):
            monkeypatch.setattr(module, "verify_ske",
                                lambda *a: seen.append(a[1].descriptor) or verify(*a))
        run()
        assert len(seen) == calls
