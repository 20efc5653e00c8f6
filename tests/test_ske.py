import json
import random
import tracemalloc
from functools import cache
from itertools import product as iproduct

import pytest

from surfbound.groups import (
    DihedralGroup,
    construct,
    cyclic_perm,
    dihedral_perm,
    gl2_3,
    klein_four,
    quaternion8,
    symmetric,
)
from surfbound.signatures import (
    NonIntegralGenus,
    NotAdmissible,
    NotDecimal,
    Signature,
    parse_signature,
    relators,
)
from surfbound.ske import (
    LongRelationFails,
    NotSurjective,
    OrderNotPreserved,
    SearchSpaceTooLarge,
    SkeCertificate,
    check_recorded,
    dihedral_witness_ske,
    evaluate,
    replay,
    search_ske,
    verify_certificate,
    verify_ske,
)


def brute_solutions(sig, group):
    # exhaustive oracle: every tuple, no solving, no pruning
    g, periods = sig.genus, sig.periods
    slots = [group.elements] * (2 * g)
    for m in periods:
        slots.append([e for e in group.elements if group.element_order(e) == m])
    out = []
    for tup in iproduct(*slots):
        hyp, ell = tup[: 2 * g], tup[2 * g:]
        w = group.identity
        for t in range(g):
            a, b = hyp[2 * t], hyp[2 * t + 1]
            w = group.mul(w, group.mul(group.mul(a, b),
                                       group.mul(group.inv(a), group.inv(b))))
        for c in ell:
            w = group.mul(w, c)
        if w != group.identity:
            continue
        if not group.generates(tup):
            continue
        out.append(tup)
    return out


def brute_classes(sig, group):
    # orbits of the solution set under simultaneous conjugation
    sols = set(brute_solutions(sig, group))
    classes = 0
    while sols:
        rep = sols.pop()
        classes += 1
        for h in group.elements:
            hinv = group.inv(h)
            sols.discard(tuple(group.mul(group.mul(h, x), hinv) for x in rep))
    return classes


def exhaustive_search(sig, group, mode, dedup):
    """The search without conjugation cuts, as an oracle for search_ske.

    Every candidate of every searched slot is tried, in the same slot order
    (searched elliptic slots rarest order first, then hyperbolic ones) and
    element-index order, with the last elliptic image solved from the long
    relation.  dedup keeps the first solution of every conjugacy orbit.
    """
    found = _exhaustive_solutions(sig, group.descriptor)[dedup]
    if mode == "first":
        return found[0] if found else None
    return len(found)


@cache
def _exhaustive_solutions(sig, descriptor):
    # (every solution, the first solution of each conjugacy orbit), found
    # once per instance on element indices through a multiplication table
    # so that the order-72 case stays fast
    group = construct(descriptor)
    elements = tuple(group.elements)
    n = len(elements)
    index = group.index
    mul = [[index[group.mul(x, y)] for y in elements] for x in elements]
    inv = [index[group.inv(x)] for x in elements]
    order = [group.element_order(x) for x in elements]
    e = index[group.identity]

    def generates(gens):
        reached = bytearray(n)
        reached[e] = 1
        frontier = [e]
        for x in frontier:
            for y in gens:
                z = mul[x][y]
                if not reached[z]:
                    reached[z] = 1
                    frontier.append(z)
        return len(frontier) == n

    g, periods = sig.genus, sig.periods
    k = len(periods)
    pools = {m: [i for i in range(n) if order[i] == m] for m in periods}
    searched = sorted(range(k - 1), key=lambda j: (len(pools[periods[j]]), j))
    slots = [pools[periods[j]] for j in searched] + [range(n)] * (2 * g)
    found = []
    for choice in iproduct(*slots):
        ell = [None] * k
        for j, x in zip(searched, choice):
            ell[j] = x
        hyp = choice[len(searched):]
        w = e
        for t in range(g):
            a, b = hyp[2 * t], hyp[2 * t + 1]
            w = mul[w][mul[mul[a][b]][mul[inv[a]][inv[b]]]]
        for c in ell[: k - 1]:
            w = mul[w][c]
        if k:
            ell[k - 1] = inv[w]
            if order[ell[k - 1]] != periods[k - 1]:
                continue
        elif w != e:
            continue
        images = tuple(hyp) + tuple(ell)
        if generates(images):
            found.append(images)
    covered, firsts = set(), []
    for images in found:
        if images not in covered:
            firsts.append(images)
            covered.update(tuple(mul[mul[h][x]][inv[h]] for x in images)
                           for h in range(n))
    return tuple(tuple(tuple(elements[i] for i in images) for images in sols)
                 for sols in (found, firsts))


class TestVerify:
    def test_quintuple_to_v4(self):
        v = klein_four()
        x, y = v.generators
        xy = v.mul(x, y)
        cert = verify_ske(Signature(0, (2, 2, 2, 2, 2)), v, (xy, y, y, y, x))
        assert cert.group_order == 4
        assert cert.kernel_genus == 2

    def test_order_not_preserved(self):
        v = klein_four()
        x = v.generators[0]
        with pytest.raises(OrderNotPreserved) as err:
            verify_ske(Signature(1, (2, 2)), v, (v.identity, v.identity, v.identity, x))
        assert str(err.value) == ("elliptic generator 1 must map to an element of order 2,"
                                  " image has order 1")

    def test_long_relation_fails(self):
        v = klein_four()
        x, y = v.generators
        with pytest.raises(LongRelationFails):
            verify_ske(Signature(1, (2, 2)), v, (v.identity, v.identity, x, y))

    def test_not_surjective(self):
        v = klein_four()
        x = v.generators[0]
        with pytest.raises(NotSurjective):
            verify_ske(Signature(1, (2, 2)), v, (v.identity, v.identity, x, x))

    def test_wrong_length(self):
        v = klein_four()
        with pytest.raises(ValueError, match="images"):
            verify_ske(Signature(0, (2, 2, 2, 2, 2)), v, (v.identity,))

    def test_foreign_element(self):
        v = klein_four()
        with pytest.raises(ValueError, match="not an element"):
            verify_ske(Signature(1, (2, 2)), v,
                       (v.identity, v.identity, (1, 2, 3, 0), (1, 2, 3, 0)))

    def test_genus_two_long_relation_fails(self):
        # [a_1, b_1] = [(0 1), (0 1 2)] is a 3-cycle, and a_2 = b_2 = 1
        s3 = construct("S3")
        images = [(1, 0, 2), (1, 2, 0), (0, 1, 2), (0, 1, 2)]
        with pytest.raises(LongRelationFails) as err:
            verify_ske(Signature(2, ()), s3, images)
        assert str(err.value) == "long relation image is not the identity for (2;)"

    def test_astronomical_periods_verify_in_constant_space(self):
        # the long relator is evaluated without writing c_j^{m_j} out: at
        # periods of 10**20 that would not fit in memory
        n = 10**20 + 1
        sig = Signature(0, (n, n, n))
        tracemalloc.start()
        try:
            cert = verify_ske(sig, construct(f"cyclic:{n}"), (1, 1, n - 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.kernel_genus == 1 + (n - 3) // 2
        assert peak < 100_000

    def test_order_checked_before_relation(self):
        # defect reporting order: orders, relation, surjectivity
        v = klein_four()
        x = v.generators[0]
        with pytest.raises(OrderNotPreserved):
            verify_ske(Signature(1, (2, 2)), v, (v.identity, v.identity, v.identity, x))


def relation_product(group, genus, hyperbolic, elliptic):
    # reference: the long relation as a product of commutators, then the
    # elliptic images
    w = group.identity
    for t in range(genus):
        a, b = hyperbolic[2 * t], hyperbolic[2 * t + 1]
        comm = group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))
        w = group.mul(w, comm)
    for c in elliptic:
        w = group.mul(w, c)
    return w


class TestEvaluate:
    @pytest.mark.parametrize("genus", [0, 1, 2])
    @pytest.mark.parametrize("descriptor", ["S4", "S5"])
    def test_long_relator_is_the_commutator_product(self, descriptor, genus):
        group = construct(descriptor)
        rng = random.Random(f"{descriptor} {genus}")
        values = set()
        for _ in range(200):
            sig = Signature(genus, [rng.randrange(2, 8) for _ in range(rng.randrange(5))])
            images = [rng.choice(group.elements) for _ in range(2 * genus + len(sig.periods))]
            value = evaluate(group, relators(sig)[-1], images)
            assert value == relation_product(group, genus, images[:2 * genus],
                                             images[2 * genus:]), (sig, images)
            values.add(value)
        # the random images reach more than the identity
        assert len(values) > 1


class TestSearchAgainstBruteForce:
    CASES = [
        # (signature, group builder, solutions exist)
        (Signature(0, (2, 2, 2, 2, 2)), klein_four, True),
        (Signature(0, (2, 2, 2, 3)), lambda: dihedral_perm(6), True),
        # parity obstruction: order-3 images are even, order-4 elements odd
        (Signature(0, (3, 3, 4)), lambda: symmetric(4), False),
        (Signature(2, ()), lambda: cyclic_perm(5), True),
        (Signature(1, (2, 2)), klein_four, True),
        (Signature(0, (2, 3, 8)), gl2_3, True),
    ]

    @pytest.mark.parametrize("sig,build,nonempty", CASES)
    def test_count_mode_matches(self, sig, build, nonempty):
        group = build()
        assert search_ske(sig, group, mode="count") == len(brute_solutions(sig, group))

    def test_search_deterministic(self):
        sig = Signature(0, (2, 3, 8))
        group = gl2_3()
        for mode in ("first", "count"):
            assert search_ske(sig, group, mode=mode) == search_ske(sig, group, mode=mode)

    def test_no_solutions_found_honestly(self):
        # orders 2, 3, 12 in C24 never multiply to 1 with full image
        sig = Signature(0, (2, 3, 12))
        assert search_ske(sig, cyclic_perm(24), mode="first") is None
        assert search_ske(sig, cyclic_perm(24), mode="count") == 0


class TestSearchAgainstExhaustive:
    CASES = TestSearchAgainstBruteForce.CASES + [
        # parametric backend
        (Signature(0, (2, 2, 2, 3)), lambda: DihedralGroup(6), True),
        # centralizer orbits over the two hyperbolic slots
        (Signature(1, (2,)), quaternion8, True),
        # a direct product, three searched elliptic slots
        (Signature(0, (2, 2, 2, 6)), lambda: construct("S3*D6"), True),
        # no periods on non-abelian groups: the leaf checks the relation alone
        (Signature(2, ()), lambda: construct("S3"), True),
        (Signature(2, ()), quaternion8, True),
    ]

    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("sig,build,nonempty", CASES)
    def test_every_mode_matches(self, sig, build, nonempty, dedup):
        group = build()
        for mode in ("first", "count"):
            expected = exhaustive_search(sig, group, mode, dedup)
            assert search_ske(sig, group, mode=mode, dedup=dedup) == expected, mode
        assert bool(expected) == nonempty

    # the counts of the benchmark's search workload
    WORKLOAD = [
        ("2,3,7", "S7", False, 0),
        ("3,3,4", "A6", False, 1440),
        ("2,2,2,6", "S3*D7", False, 6048),
        ("2,2,2,4", "aff9:0,1,2,0:0,1,1,0", False, 1728),
        ("2,3,7", "perm:7:0,5,6,3,4,1,2:3,0,4,1,5,2,6", True, 2),
        ("g1p3", "A5", False, 1080),
    ]

    @pytest.mark.parametrize("sig,descriptor,dedup,count", WORKLOAD)
    def test_workload_counts(self, sig, descriptor, dedup, count):
        group = construct(descriptor)
        assert search_ske(parse_signature(sig), group, mode="count", dedup=dedup) == count


class TestSearchDedup:
    def test_classes_match_orbit_count(self):
        sig = Signature(0, (2, 2, 2, 3))
        group = dihedral_perm(6)
        count = search_ske(sig, group, mode="count", dedup=True)
        assert count == brute_classes(sig, group)
        assert 0 < count < search_ske(sig, group, mode="count")

    def test_abelian_group_dedup_is_noop(self):
        sig = Signature(0, (2, 2, 2, 2, 2))
        group = klein_four()
        assert (search_ske(sig, group, mode="count", dedup=True)
                == search_ske(sig, group, mode="count"))

    # the search workload, a large centre and an abelian group
    INSTANCES = [(sig, descriptor) for sig, descriptor, _, _ in
                 TestSearchAgainstExhaustive.WORKLOAD] + [
        ("g1p3", "C15*S3"),
        ("g2", "C5"),
    ]

    @pytest.mark.parametrize("sig,descriptor", INSTANCES)
    def test_orbits_have_the_centre_index(self, sig, descriptor):
        # only the centre fixes a generating tuple under conjugation
        group = construct(descriptor)
        elements = group.elements
        centre = [z for z in elements
                  if all(group.mul(z, h) == group.mul(h, z) for h in elements)]
        sig = parse_signature(sig)
        orbits = search_ske(sig, group, mode="count", dedup=True)
        assert orbits * (len(elements) // len(centre)) == search_ske(sig, group, mode="count")

    @pytest.mark.parametrize("sig,descriptor", [
        ("2,2,2,6", "S3*D7"),
        ("3,3,4", "A6"),
        ("g1p3", "C15*S3"),
        ("g2", "C5"),
    ])
    def test_count_dedup_costs_only_the_centre(self, sig, descriptor):
        # finding |Z(G)| is the only work dedup adds to count, whatever the
        # number of solutions: two products per element and generator
        sig, group = parse_signature(sig), construct(descriptor)
        mul, products = group.mul, 0

        def counting_mul(x, y):
            nonlocal products
            products += 1
            return mul(x, y)

        group.mul = counting_mul
        assert search_ske(sig, group, mode="count", dedup=True)
        deduped, products = products, 0
        assert search_ske(sig, group, mode="count")
        assert deduped <= products + 2 * group.order * len(group.generators)


class TestSearchControls:
    def test_budget_env(self, monkeypatch):
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", "2")
        with pytest.raises(SearchSpaceTooLarge):
            search_ske(Signature(0, (2, 2, 2, 2, 2)), klein_four())

    @pytest.mark.parametrize("mode, empty", [("first", None), ("count", 0)])
    def test_missing_period_is_an_answer_within_any_budget(self, monkeypatch, mode, empty):
        # C5 has no element of order 2, so the walk has no node: the empty
        # answer, although the eleven searched slots outnumber the budget
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", "1")
        assert search_ske(Signature(3, (2, 2, 2, 2, 5, 5)), cyclic_perm(5), mode=mode) == empty

    # refused by the one cap reader, with the CLI's message, not a cap exceeded
    BAD_CAPS = ("0", "-0", "-3", "abc", "1e9", "5_000", " 7", "+7", "\u0662\u0664", "9" * 1001)

    @pytest.mark.parametrize("name", ["SURFBOUND_NODE_BUDGET", "SURFBOUND_ORDER_CAP"])
    @pytest.mark.parametrize("value", BAD_CAPS,
                             ids=lambda v: v if len(v) < 9 else f"{len(v)}-digits")
    def test_bad_cap_is_refused_with_the_cli_message(self, monkeypatch, name, value):
        # the group is built first, so the search itself reads both caps
        group = construct("A5")
        monkeypatch.setenv(name, value)
        with pytest.raises(NotDecimal) as info:
            search_ske(Signature(0, (2, 5, 5)), group, mode="count")
        assert str(info.value) == (f"{name} must be a positive decimal integer"
                                   f" of at most 1000 digits, got {value!r:.60}")

    BUDGET_CASES = [
        (Signature(0, (2, 2, 2, 3)), lambda: dihedral_perm(6)),
        (Signature(1, (2,)), quaternion8),
    ]

    @pytest.mark.parametrize("mode", ["count"])
    @pytest.mark.parametrize("sig,build", BUDGET_CASES)
    def test_budget_is_exact(self, monkeypatch, sig, build, mode):
        # nodes: slot-0 class representatives, slot-1 centralizer-orbit
        # representatives, then every candidate of every deeper slot;
        # classes and orbits are counted here by conjugating with all of G;
        # 'count' visits the whole tree
        group = build()
        elements = group.elements

        def conj(h, x):
            return group.mul(group.mul(h, x), group.inv(h))

        def orbit_count(acting, pool):
            return len({min(conj(h, x) for h in acting) for x in pool})

        searched = sig.periods[:-1]
        pools = [[x for x in elements if group.element_order(x) == m] for m in searched]
        pools += [elements] * (2 * sig.genus)
        first, second, deeper = pools[0], pools[1], pools[2:]
        reps = {min(conj(h, r) for h in elements) for r in first}
        pairs = sum(orbit_count([h for h in elements if conj(h, r) == r], second)
                    for r in reps)
        below, width = 1, 1
        for pool in deeper:
            width *= len(pool)
            below += width
        nodes = len(reps) + pairs * below

        expected = search_ske(sig, group, mode=mode)
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", str(nodes))
        assert search_ske(sig, group, mode=mode) == expected
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", str(nodes - 1))
        with pytest.raises(SearchSpaceTooLarge) as err:
            search_ske(sig, group, mode=mode)
        assert str(err.value) == (f"node budget {nodes - 1} exhausted searching "
                                  f"{sig} -> {group.descriptor}")

    @pytest.mark.parametrize("sig,build", BUDGET_CASES + [
        (Signature(0, (2, 3, 8)), gl2_3),
    ])
    def test_first_stops_at_its_solution(self, monkeypatch, sig, build):
        # the least budget that 'first' completes within, found by
        # bisection, is too small for 'count': the search stops at the
        # first solution instead of walking the rest of the tree
        group = build()
        expected = search_ske(sig, group, mode="first")
        assert expected is not None

        def first_completes(budget):
            monkeypatch.setenv("SURFBOUND_NODE_BUDGET", str(budget))
            try:
                return search_ske(sig, group, mode="first") == expected
            except SearchSpaceTooLarge:
                return False

        low, high = 0, 1
        while not first_completes(high):
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if first_completes(mid) else (mid, high)
        assert first_completes(high) and not first_completes(high - 1)
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", str(high))
        with pytest.raises(SearchSpaceTooLarge):
            search_ske(sig, group, mode="count")

    @pytest.mark.parametrize("descriptor", ["cyclic:100", "C10*D4"])
    def test_products_bounded_on_a_large_centre(self, descriptor):
        # g1p2 has no solution onto these groups.  The exhaustive search
        # spends 4|G|^2 products on commutators of hyperbolic pairs; the
        # class and orbit cuts must stay within a small multiple of that
        # where centralizers are large (acting with every element of C(r)
        # on every candidate costs about 2|G|^3 in an abelian group)
        group = construct(descriptor)
        mul, products = group.mul, 0

        def counting_mul(x, y):
            nonlocal products
            products += 1
            return mul(x, y)

        group.mul = counting_mul
        assert search_ske(Signature(1, (2,)), group, mode="count") == 0
        assert products <= 6 * group.order ** 2

    def test_each_order_computed_once(self):
        # one order table serves the candidate pools of every period and
        # the order check of the solved last image at each leaf
        group = construct("S7")
        element_order, calls = group.element_order, 0

        def counting_order(x):
            nonlocal calls
            calls += 1
            return element_order(x)

        group.element_order = counting_order
        assert search_ske(Signature(0, (2, 3, 7)), group, mode="count") == 0
        assert calls <= group.order

    def test_incompatible_order_raises(self):
        with pytest.raises(NonIntegralGenus):
            search_ske(Signature(0, (2, 3, 12)), cyclic_perm(12))

    def test_inadmissible_raises(self):
        with pytest.raises(NotAdmissible):
            search_ske(Signature(0, (2, 3, 5)), klein_four())

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            search_ske(Signature(0, (2, 2, 2, 2, 2)), klein_four(), mode="some")


class TestDihedralWitness:
    @pytest.mark.parametrize("g", list(range(2, 31)))
    def test_small_genera(self, g):
        cert = dihedral_witness_ske(g)
        assert cert.group_order == 4 * (g - 1)
        assert cert.kernel_genus == g
        assert cert.signature == Signature(0, (2, 2, 2, 2, 2))

    def test_astronomical_genus_instant(self):
        g = 10 ** 50 + 7
        cert = dihedral_witness_ske(g)
        assert cert.group_order == 4 * (g - 1)
        assert cert.kernel_genus == g

    def test_matches_permutation_backend(self):
        # dual route: replay the parametric witness inside the explicit
        # permutation model of the same dihedral group
        for g in range(3, 12):
            cert = dihedral_witness_ske(g)
            n = 2 * (g - 1)
            perm = dihedral_perm(n)
            a, b = perm.generators

            def as_perm(key):
                i, e = key
                w = perm.identity
                for _ in range(i):
                    w = perm.mul(w, a)
                if e:
                    w = perm.mul(w, b)
                return w

            images = tuple(as_perm(x) for x in cert.images)
            twin = verify_ske(cert.signature, perm, images)
            assert twin.kernel_genus == g

    def test_rejects_genus_below_two(self):
        with pytest.raises(ValueError):
            dihedral_witness_ske(1)


class TestCertificates:
    def test_json_round_trip(self):
        cert = dihedral_witness_ske(7)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        data = json.loads(blob)
        back = SkeCertificate.from_dict(data)
        # the reader keeps the inputs alone; the replay rebuilds the rest
        assert back == cert._replace(group_order=None, kernel_genus=None)
        assert replay(verify_certificate, back, data) == cert

    def test_permutation_group_round_trip(self):
        sig = Signature(0, (2, 3, 8))
        group = gl2_3()
        images = search_ske(sig, group, mode="first")
        cert = verify_ske(sig, group, images)
        back = SkeCertificate.from_dict(cert.to_dict())
        assert verify_certificate(back).kernel_genus == 2

    def test_tampered_images_rejected(self):
        cert = dihedral_witness_ske(5)
        data = cert.to_dict()
        data["images"][0] = [2, 0]
        tampered = SkeCertificate.from_dict(data)
        with pytest.raises((ValueError, LongRelationFails, OrderNotPreserved)):
            verify_certificate(tampered)

    def test_tampered_genus_rejected(self):
        cert = dihedral_witness_ske(5)
        data = cert.to_dict()
        data["kernel_genus"] = 6
        with pytest.raises(ValueError, match="kernel genus"):
            replay(verify_certificate, SkeCertificate.from_dict(data), data)

    def test_unsupported_verifier_version_rejected(self):
        data = dihedral_witness_ske(5).to_dict()
        data["verifier_version"] = "2"
        with pytest.raises(ValueError, match="unsupported verifier_version '2'"):
            verify_certificate(SkeCertificate.from_dict(data))

    def test_non_string_verifier_version_malformed(self):
        data = dihedral_witness_ske(5).to_dict()
        data["verifier_version"] = 1
        with pytest.raises(TypeError, match="verifier_version must be a string"):
            SkeCertificate.from_dict(data)

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="type must be 'ske', got 'other'"):
            SkeCertificate.from_dict({"type": "other"})

    # two documents, and the refusal naming where they first differ
    DIFFERENCES = {
        "extra-key": ({"a": [1, {"b": 2, "c": 3}]}, {"a": [1, {"b": 2}]},
                      "a[1].c 3, recomputed absent"),
        "missing-key": ({"a": [1, {}]}, {"a": [1, {"b": 2}]},
                        "a[1].b absent, recomputed 2"),
        "one-for-true": ({"a": {"b": 1}}, {"a": {"b": True}}, "a.b 1, recomputed true"),
        "top-level": ({"kernel_genus": 3}, {"kernel_genus": 2},
                      "kernel genus 3, recomputed 2"),
    }

    @pytest.mark.parametrize("variant", sorted(DIFFERENCES))
    def test_check_recorded_names_the_path(self, variant):
        stated, rebuilt, refusal = self.DIFFERENCES[variant]
        with pytest.raises(ValueError) as err:
            check_recorded(stated, rebuilt)
        assert str(err.value) == f"certificate states {refusal}"

    def test_check_recorded_passes_equal_documents(self):
        doc = dihedral_witness_ske(5).to_dict()
        assert check_recorded(json.loads(json.dumps(doc)), doc) is None
