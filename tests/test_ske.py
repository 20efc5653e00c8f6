import json
from itertools import product as iproduct

import pytest

from surfbound.groups import (
    DihedralGroup,
    cyclic_perm,
    dihedral_perm,
    gl2_3,
    klein_four,
    symmetric,
)
from surfbound.signatures import NonIntegralGenus, NotAdmissible, Signature
from surfbound.ske import (
    LongRelationFails,
    NotSurjective,
    OrderNotPreserved,
    SearchSpaceTooLarge,
    SkeCertificate,
    dihedral_witness_ske,
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
        assert err.value.period_index == 1

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

    def test_order_checked_before_relation(self):
        # defect reporting order: orders, relation, surjectivity
        v = klein_four()
        x = v.generators[0]
        with pytest.raises(OrderNotPreserved):
            verify_ske(Signature(1, (2, 2)), v, (v.identity, v.identity, v.identity, x))


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
    def test_all_mode_matches(self, sig, build, nonempty):
        group = build()
        expected = brute_solutions(sig, group)
        got = search_ske(sig, group, mode="all")
        assert sorted(got) == sorted(expected)
        assert bool(got) == nonempty

    @pytest.mark.parametrize("sig,build,nonempty", CASES)
    def test_count_mode_matches(self, sig, build, nonempty):
        group = build()
        assert search_ske(sig, group, mode="count") == len(brute_solutions(sig, group))

    def test_every_solution_verifies(self):
        sig = Signature(0, (2, 2, 2, 3))
        group = dihedral_perm(6)
        solutions = search_ske(sig, group, mode="all")
        assert solutions
        for images in solutions:
            cert = verify_ske(sig, group, images)
            assert cert.kernel_genus == 2

    def test_first_is_head_of_all(self):
        sig = Signature(0, (2, 2, 2, 2, 2))
        group = klein_four()
        all_sols = search_ske(sig, group, mode="all")
        assert search_ske(sig, group, mode="first") == all_sols[0]

    def test_search_deterministic(self):
        sig = Signature(0, (2, 3, 8))
        group = gl2_3()
        assert search_ske(sig, group, mode="all") == search_ske(sig, group, mode="all")

    def test_no_solutions_found_honestly(self):
        # orders 2, 3, 12 in C24 never multiply to 1 with full image
        sig = Signature(0, (2, 3, 12))
        assert search_ske(sig, cyclic_perm(24), mode="first") is None
        assert search_ske(sig, cyclic_perm(24), mode="count") == 0


class TestSearchDedup:
    def test_classes_match_orbit_count(self):
        sig = Signature(0, (2, 2, 2, 3))
        group = dihedral_perm(6)
        count = search_ske(sig, group, mode="count", dedup=True)
        assert count == brute_classes(sig, group)
        assert 0 < count < search_ske(sig, group, mode="count")

    def test_dedup_representatives_verify(self):
        sig = Signature(0, (2, 2, 2, 3))
        group = dihedral_perm(6)
        reps = search_ske(sig, group, mode="all", dedup=True)
        assert reps
        for images in reps:
            verify_ske(sig, group, images)

    def test_abelian_group_dedup_is_noop(self):
        sig = Signature(0, (2, 2, 2, 2, 2))
        group = klein_four()
        assert (search_ske(sig, group, mode="count", dedup=True)
                == search_ske(sig, group, mode="count"))


class TestSearchControls:
    def test_budget_env(self, monkeypatch):
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", "2")
        with pytest.raises(SearchSpaceTooLarge):
            search_ske(Signature(0, (2, 2, 2, 2, 2)), klein_four())

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
        back = SkeCertificate.from_dict(json.loads(blob))
        assert back == cert
        verify_certificate(back)

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
            verify_certificate(SkeCertificate.from_dict(data))

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="not an ske"):
            SkeCertificate.from_dict({"type": "other"})
