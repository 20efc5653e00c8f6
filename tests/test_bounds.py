import json
import math
import random
from fractions import Fraction

import pytest

from surfbound.bounds import (
    ATTAINED_RESIDUES,
    CATALOG_ROUTES,
    GENUS,
    WitnessSearchFailed,
    attained_genera,
    attained_prime,
    bound_constants,
    certify_genus,
    degree24_obstruction,
    discharge_prime,
    frobenius_obstruction,
    sylow_forces_normal,
    verify_genus_certificate,
)
from surfbound.covers import check_cover_cases
from surfbound.groups import DihedralGroup
from surfbound.signatures import BeyondWitnessRange, Signature, signature_table
from surfbound.ske import (DIHEDRAL_SIGNATURE, SKE, read, replay, verify_certificate, verify_ske,
                           write)


def replayed(data):
    """A genus certificate document read, rebuilt and compared whole with
    the rebuild, as `ske verify` does; returns the rebuild."""
    return replay(verify_genus_certificate, read(GENUS, data), data)


def brute_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_bound_data():
    # recompute s and r straight from each signature, bypassing MeasureClass
    out = []
    for entry in signature_table():
        sig = entry.signature
        mu = 2 * (2 * sig.genus - 2 + sum(Fraction(m - 1, m) for m in sig.periods))
        q = mu / 4
        out.append((q.denominator, q.numerator))  # (s, r)
    return out


class TestBoundConstants:
    def test_frozen_values(self):
        c = bound_constants()
        assert c.s_max == 84
        assert c.r_lcm == 210
        assert c.primes == (2, 3, 5, 7)
        assert c.table_size == 74

    def test_ranking_prefix(self):
        # three distinct signatures share the integer bound value 24
        c = bound_constants()
        assert c.s_ranking[:9] == (84, 48, 40, 36, 30, 24, 24, 24, 21)

    def test_against_direct_recomputation(self):
        data = brute_bound_data()
        ints = sorted((s for s, r in data if r == 1), reverse=True)
        r_lcm = 1
        for _, r in data:
            r_lcm = r_lcm * r // math.gcd(r_lcm, r)
        c = bound_constants()
        assert c.s_max == max(ints)
        assert c.s_ranking == tuple(ints)
        assert c.r_lcm == r_lcm
        assert c.primes == tuple(
            p for p in range(2, r_lcm + 1) if brute_is_prime(p) and r_lcm % p == 0
        )

    def test_ranking_has_multiplicity(self):
        c = bound_constants()
        assert c.s_ranking.count(24) == 3


class TestPrimeConditions:
    def test_known_attained(self):
        for p in (23, 47, 59, 83, 107, 167, 179, 227, 239, 263):
            assert attained_prime(p)
            assert brute_is_prime(p)
            assert p % 60 in ATTAINED_RESIDUES

    def test_known_not_attained(self):
        for p in (2, 3, 5, 7, 11, 13, 29, 31, 41, 43, 53, 61, 71, 73, 89, 103):
            assert not attained_prime(p)

    def test_composite_never_attained(self):
        # 143 = 11 * 13 has residue 23 but is not prime
        assert 143 % 60 == 23
        assert not brute_is_prime(143)
        assert not attained_prime(143)

    def test_primality_decided_before_the_residue(self):
        # 10^25 + 9 = 49 (mod 60) has no prime factor up to 37 and is past
        # the Miller-Rabin range: refused, not answered from the residue
        with pytest.raises(BeyondWitnessRange):
            attained_prime(10 ** 25 + 9)

    def test_residue_route_matches_divisibility_route(self):
        # p mod 60 in {23, 47, 59} iff p is an odd prime > 5 with none of
        # 3, 4, 5 dividing p - 1; checked against a sieve for every p < 10^5
        limit = 10 ** 5
        sieve = [False, False] + [True] * (limit - 2)
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(range(d * d, limit, d))
        for p in range(limit):
            via_divisibility = bool(
                sieve[p] and p > 5 and p % 2 == 1
                and (p - 1) % 3 and (p - 1) % 4 and (p - 1) % 5
            )
            assert attained_prime(p) == via_divisibility, p


class TestSylowForcing:
    def test_matches_divisor_scan(self):
        rng = random.Random(4021)
        for _ in range(300):
            p = rng.choice((23, 47, 59, 83, 107))
            n = rng.randrange(1, 200)
            brute = all(
                d == 1 for d in range(1, n + 1) if n % d == 0 and d % p == 1
            )
            assert sylow_forces_normal(p, n) == brute

    def test_exceptional_values(self):
        assert not sylow_forces_normal(23, 24)
        assert not sylow_forces_normal(23, 48)
        assert not sylow_forces_normal(47, 48)
        assert not sylow_forces_normal(83, 84)
        assert sylow_forces_normal(59, 84)
        assert sylow_forces_normal(23, 84)


class TestFrobeniusObstruction:
    def test_p47_bound48(self):
        facts, ok = frobenius_obstruction(47, 48)
        assert ok
        assert facts["self_normalizing_only"]
        assert facts["signatures"] == ["(2,3,8)"]
        assert facts["cyclic_quotient_counts"] == {"(2,3,8)": 0}

    def test_p83_bound84(self):
        facts, ok = frobenius_obstruction(83, 84)
        assert ok
        assert facts["signatures"] == ["(2,3,7)"]

    def test_inapplicable_when_count_not_self_normalizing(self):
        # divisors of 48 that are 1 mod 23 are {1, 24}, not {1, 48}
        facts, ok = frobenius_obstruction(23, 48)
        assert not ok
        assert facts["sylow_count_options"] == [24]


class TestDegree24Obstruction:
    def test_overgroup_orders(self):
        facts, ok = degree24_obstruction(23, 48)
        assert ok
        orders = facts["overgroup_orders"]
        assert orders["PSL(2,23)"] == 23 * 24 * 22 // 2 == 6072
        assert orders["PGL(2,23)"] == 2 * orders["PSL(2,23)"]
        assert orders["M24"] == 2**10 * 3**3 * 5 * 7 * 11 * 23
        assert orders["A24"] == math.factorial(24) // 2
        assert orders["S24"] == math.factorial(24)
        assert min(orders.values()) > 48 * 23

    def test_both_bound_values(self):
        for s in (24, 48):
            facts, ok = degree24_obstruction(23, s)
            assert ok
            assert facts["group_order"] == 23 * s
            assert facts["sylow_count_options"] == [24]

    def test_rejects_other_primes(self):
        _, ok = degree24_obstruction(47, 48)
        assert not ok


class TestDischarge:
    def test_rejects_non_attained(self):
        with pytest.raises(ValueError):
            discharge_prime(29)

    def test_bound_values_from_table(self):
        rep = discharge_prime(59)
        ints = sorted(
            {s for s, r in brute_bound_data() if r == 1 and s > 4}, reverse=True
        )
        assert list(rep.bounds) == ints
        assert rep.bounds[0] == 84 and rep.bounds[-1] == 5

    def test_p59_all_sylow_forced(self):
        rep = discharge_prime(59)
        assert rep.complete
        methods = {e.method for e in rep.entries}
        assert methods == {"denominator-exclusion", "cover-congruence-shield",
                           "sylow-normal"}
        sylow = next(e for e in rep.entries if e.method == "sylow-normal")
        assert set(sylow.bounds_covered) == set(rep.bounds)

    def test_p47_frobenius_at_48(self):
        rep = discharge_prime(47)
        assert rep.complete
        frob = [e for e in rep.entries if e.method == "frobenius-quotient"]
        assert [e.bounds_covered for e in frob] == [(48,)]

    def test_p83_frobenius_at_84(self):
        rep = discharge_prime(83)
        assert rep.complete
        frob = [e for e in rep.entries if e.method == "frobenius-quotient"]
        assert [e.bounds_covered for e in frob] == [(84,)]

    def test_p23_degree24_at_24_and_48(self):
        rep = discharge_prime(23)
        assert rep.complete
        deg = [e for e in rep.entries if e.method == "sylow-orbit-embedding"]
        assert sorted(b for e in deg for b in e.bounds_covered) == [24, 48]

    def test_p107_generic(self):
        # beyond the largest bound value every Sylow count is forced to 1
        rep = discharge_prime(107)
        assert rep.complete
        sylow = next(e for e in rep.entries if e.method == "sylow-normal")
        assert set(sylow.bounds_covered) == set(rep.bounds)

    def test_congruence_shield_lists_every_case(self):
        rep = discharge_prime(23)
        shield = next(e for e in rep.entries if e.method == "cover-congruence-shield")
        assert set(shield.facts) == {f"case_{c}_lifts" for c in "abcdefg"}
        assert not any(shield.facts.values())

    def test_deep_recomputes_cover_cases(self):
        # the shield's facts come from each case's two integers; the homology
        # (cover --check --primes p) finds no invariant hyperplane either
        primes = [p for p in range(1000) if attained_prime(p)]
        assert len(primes) == 32
        for report in check_cover_cases(primes=primes):
            assert report["with_hyperplane"] == [], report

    def test_report_round_trip(self):
        # a ledger is never read, only rebuilt from the genus and compared
        rep = discharge_prime(47)
        back = replayed(json.loads(json.dumps(certify_genus(48).to_dict()))).discharge
        assert back.prime == rep.prime
        assert back.complete == rep.complete
        assert back.bounds == rep.bounds
        assert [e.method for e in back.entries] == [e.method for e in rep.entries]

    def test_ledger_is_plain_json(self):
        # to_dict writes every fact as it is, so each must already be a JSON
        # value that survives a round trip unchanged (no tuple, no set)
        def plain(value):
            if isinstance(value, dict):
                return all(isinstance(k, str) and plain(v) for k, v in value.items())
            if isinstance(value, list):
                return all(plain(v) for v in value)
            return value is None or type(value) in (str, int, bool)

        primes = [p for p in range(1000) if attained_prime(p)]
        assert len(primes) == 32
        for p in primes:
            data = discharge_prime(p).to_dict()
            assert plain(data), p
            assert json.loads(json.dumps(data)) == data, p


class TestAttainedGenera:
    def test_up_to_300(self):
        genera = [a.genus for a in attained_genera(300)]
        assert genera == [24, 48, 60, 84, 108, 168, 180, 228, 240, 264]

    def test_against_brute_sieve(self):
        brute = [
            p + 1
            for p in range(2, 300)
            if brute_is_prime(p) and p % 60 in (23, 47, 59)
        ]
        assert [a.genus for a in attained_genera(300)] == brute

    def test_24_is_minimal(self):
        assert attained_genera(23) == []
        first = attained_genera(24)
        assert len(first) == 1
        assert first[0].genus == 24
        assert first[0].prime == 23
        assert first[0].bound == 92

    def test_all_discharges_complete(self):
        assert all(a.complete for a in attained_genera(300))

    def test_bound_is_4p(self):
        for a in attained_genera(120):
            assert a.bound == 4 * a.prime == 4 * (a.genus - 1)

    def test_genera_are_their_ledgers(self):
        # the ledger is the whole record; test_bound_is_4p reads its genus
        # and bound from its prime
        ledgers = [discharge_prime(p) for p in range(300) if attained_prime(p)]
        assert attained_genera(300) == ledgers


EXPECTED_CATALOG_BOUNDS = {
    2: 48, 3: 32, 4: 36, 5: 24, 6: 50, 7: 36, 8: 84, 9: 48, 10: 72,
    11: 60, 12: 110, 13: 72, 14: 156, 15: 84, 16: 360, 17: 96, 18: 136,
    19: 108, 20: 228, 21: 120, 22: 252, 23: 132,
}


class TestCatalog:
    def test_routes_cover_catalog_range(self):
        assert list(CATALOG_ROUTES) == list(range(2, 24))

    def test_genus10_action_is_canonical_first(self):
        # re-derive the frozen genus-10 descriptor: lexicographically first
        # faithful dihedral pair of 2x2 matrices mod 3 whose search succeeds
        from itertools import product as iproduct

        from surfbound.groups import affine33
        from surfbound.ske import search_ske

        ident = ((1, 0), (0, 1))

        def mmul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 3
                      for j in range(2))
                for i in range(2)
            )

        def mat_order(m):
            x, k = m, 1
            while x != ident:
                x, k = mmul(x, m), k + 1
                if k > 8:
                    return None
            return k

        def span_size(r, s):
            seen = {ident}
            frontier = [ident]
            while frontier:
                frontier = [
                    y
                    for x in frontier
                    for y in (mmul(x, r), mmul(x, s))
                    if not (y in seen or seen.add(y))
                ]
            return len(seen)

        mats = [((a, b), (c, d)) for a, b, c, d in iproduct(range(3), repeat=4)]
        sig = Signature(0, (2, 2, 2, 4))
        for r in mats:
            if mat_order(r) != 4:
                continue
            r3 = mmul(mmul(r, r), r)
            hit = None
            for s in mats:
                if mat_order(s) != 2 or mmul(mmul(s, r), s) != r3:
                    continue
                if span_size(r, s) != 8:
                    continue
                group = affine33((r, s))
                if search_ske(sig, group, mode="first") is not None:
                    hit = group.descriptor
                    break
            if hit:
                break
        frozen = CATALOG_ROUTES[10][0][2]
        assert hit == frozen == "aff9:0,1,2,0:0,1,1,0"

    @pytest.mark.parametrize("g", sorted(EXPECTED_CATALOG_BOUNDS))
    def test_catalog_genus(self, g):
        cert = certify_genus(g)
        verify_genus_certificate(cert)
        assert cert.bound == EXPECTED_CATALOG_BOUNDS[g]
        assert cert.bound >= 4 * (g - 1)
        signatures = [w.signature for w in cert.witnesses]
        assert signatures[0] == DIHEDRAL_SIGNATURE
        assert len(signatures) >= 2
        for w in cert.witnesses:
            assert w.kernel_genus == g

    def test_odd_genus_product_family(self):
        # the searched action at odd genus has order 6(g-1)
        for g in (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23):
            cert = certify_genus(g)
            searched = [w for w in cert.witnesses if w.signature == Signature(0, (2, 2, 2, 6))]
            assert any(w.group_order == 6 * (g - 1) for w in searched)

    def test_genus_two_uses_gl23(self):
        cert = certify_genus(2)
        best = max(cert.witnesses, key=lambda w: w.group_order)
        assert best.group.descriptor == "GL23"
        assert best.group_order == 48


class TestCertifyGenus:
    def test_rejects_genus_below_two(self):
        with pytest.raises(ValueError):
            certify_genus(1)

    def test_attained_genus_24(self):
        cert = certify_genus(24)
        verify_genus_certificate(cert)
        assert cert.bound == 92
        assert cert.attained
        assert cert.discharge.complete

    def test_attained_genus_48_deep(self):
        cert = certify_genus(48)
        verify_genus_certificate(cert)
        assert cert.bound == 188
        assert cert.attained
        # the shield agrees with the homology recomputed at p = 47
        shield = next(e for e in cert.discharge.entries
                      if e.method == "cover-congruence-shield")
        assert shield.ok and not any(shield.facts.values())
        assert all(r["with_hyperplane"] == [] for r in check_cover_cases(primes=(47,)))

    def test_plain_genus_has_no_discharge(self):
        cert = certify_genus(100)
        verify_genus_certificate(cert)
        assert cert.bound == 4 * 99
        assert not cert.attained
        assert cert.discharge is None

    def test_large_genus_cheap(self):
        cert = certify_genus(10**6)
        assert cert.bound == 4 * (10**6 - 1)
        verify_genus_certificate(cert)

    def test_search_failure_raises(self):
        from surfbound.bounds import _search_witness

        # order 24 is an admissible target for (2,3,12) but no epimorphism exists
        with pytest.raises(WitnessSearchFailed):
            _search_witness(Signature(0, (2, 3, 12)), "C24")


class TestGenusCertificateSerialization:
    def test_round_trip(self):
        cert = certify_genus(24)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        back = replayed(json.loads(blob))
        assert back.genus == cert.genus
        assert back.bound == cert.bound
        assert len(back.witnesses) == len(cert.witnesses)
        assert back.discharge.complete

    def test_round_trip_with_cover_witness(self):
        cert = certify_genus(4)
        back = replayed(json.loads(json.dumps(cert.to_dict())))
        assert back.bound == 36

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            read(GENUS, {"type": "ske"})


class TestGenusCertificateTampering:
    def test_inflated_bound_rejected(self):
        # the bound is derived from the witnesses, so only a document states it
        data = certify_genus(5).to_dict()
        data["bound"] += 4
        with pytest.raises(ValueError, match="states bound"):
            replayed(data)

    def test_wrong_genus_rejected(self):
        cert = certify_genus(5)
        bad = cert._replace(genus=6)
        with pytest.raises(ValueError) as err:
            replayed(bad.to_dict())
        assert str(err.value) == ("witnesses[0] has kernel genus 5, "
                                  "certificate claims genus 6")

    def test_missing_dihedral_witness_rejected(self):
        cert = certify_genus(5)
        others = tuple(w for w in cert.witnesses if w.signature != DIHEDRAL_SIGNATURE)
        bad = cert._replace(witnesses=others)
        with pytest.raises(ValueError) as err:
            replayed(bad.to_dict())
        assert str(err.value) == "certificate is missing the dihedral witness"

    def test_attained_flag_tamper_rejected(self):
        # attained is derived from the ledger, so only a document states it
        data = certify_genus(10).to_dict()
        data["attained"] = True
        with pytest.raises(ValueError, match="attainedness|attained"):
            replayed(data)

    def test_forged_witness_rejected(self):
        cert = certify_genus(5)
        data = cert.to_dict()
        # claim a bigger group by doctoring the stored order
        data["witnesses"][1]["group_order"] *= 2
        data["bound"] *= 2
        with pytest.raises(ValueError):
            replayed(data)

    def test_rewritten_ledger_rejected(self):
        data = certify_genus(24).to_dict()
        ledger = data["discharge"]
        for entry in ledger["entries"]:
            entry["ok"] = False
        ledger["bounds"] = [1]
        ledger["complete"] = False
        with pytest.raises(ValueError, match="states discharge"):
            replayed(data)

    def test_ledger_of_another_genus_rejected(self):
        data = certify_genus(24).to_dict()
        data["discharge"] = certify_genus(48).to_dict()["discharge"]
        with pytest.raises(ValueError, match="states discharge"):
            replayed(data)

    def test_ledger_at_non_attained_genus_rejected(self):
        data = certify_genus(16).to_dict()
        data["discharge"] = certify_genus(24).to_dict()["discharge"]
        with pytest.raises(ValueError, match="states discharge"):
            replayed(data)

    # path to the tampered value, value (ABSENT deletes the key), message: a
    # value inside the ledger is named by its path and shown as JSON, a
    # top-level field as before, and a key only one side has by its own path
    ABSENT = object()
    NAMED_DIFFERENCES = [
        (("discharge", "complete"), 1,
         "certificate states discharge.complete 1, recomputed true"),
        (("discharge", "entries", 0, "facts", "denominators", 4), 11,
         "certificate states discharge.entries[0].facts.denominators[4] 11, recomputed 7"),
        (("discharge", "entries", 1, "facts", "case_a_lifts"), 0,
         "certificate states discharge.entries[1].facts.case_a_lifts 0, recomputed false"),
        (("attained",), 1, "certificate states attained 1, recomputed True"),
        # the shield fact that ledgers printed with the former --deep flag carry
        (("discharge", "entries", 1, "facts", "computed_lift_sets_empty"), True,
         "certificate states discharge.entries[1].facts.computed_lift_sets_empty true,"
         " recomputed absent"),
        (("discharge", "entries", 1, "facts", "case_g_lifts"), ABSENT,
         "certificate states discharge.entries[1].facts.case_g_lifts absent,"
         " recomputed false"),
    ]

    @pytest.mark.parametrize("keys,value,message", NAMED_DIFFERENCES,
                             ids=["complete", "facts-list", "facts-bool", "top-level",
                                  "extra-key", "missing-key"])
    def test_difference_named_by_path(self, keys, value, message):
        data = node = certify_genus(24).to_dict()
        for key in keys[:-1]:
            node = node[key]
        if value is self.ABSENT:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        with pytest.raises(ValueError) as err:
            replayed(data)
        assert str(err.value) == message

    def test_honest_ledger_verifies(self):
        cert = certify_genus(24)
        assert replayed(json.loads(json.dumps(cert.to_dict()))) == cert

    def test_other_dihedral_epimorphism_rejected(self):
        # conjugating every image by the rotation gives another valid
        # epimorphism, but not the dihedral witness the family names
        cert = certify_genus(5)
        group = DihedralGroup(8)
        r = (1, 0)
        images = tuple(group.mul(group.mul(r, x), group.inv(r))
                       for x in cert.witnesses[0].images)
        other = verify_ske(DIHEDRAL_SIGNATURE, group, images)
        bad = cert._replace(witnesses=(other,) + cert.witnesses[1:])
        with pytest.raises(ValueError) as err:
            replayed(bad.to_dict())
        assert str(err.value) == ("certificate states witnesses[0].images[0][0]"
                                  " 3, recomputed 1")

    def test_empty_witnesses_rejected(self):
        data = certify_genus(5).to_dict()
        data["witnesses"] = []
        with pytest.raises(ValueError, match="no witnesses"):
            replayed(data)

    def test_refusal_stated_bound(self):
        data = certify_genus(2).to_dict()
        data["bound"] = 49
        with pytest.raises(ValueError) as err:
            replayed(data)
        assert str(err.value) == "certificate states bound 49, recomputed 48"

    def test_refusal_incomplete_ledger(self, monkeypatch):
        import surfbound.bounds as bounds

        cert = certify_genus(24)
        honest = bounds.discharge_prime
        monkeypatch.setattr(bounds, "discharge_prime",
                            lambda p: honest(p)._replace(complete=False))
        with pytest.raises(ValueError) as err:
            verify_genus_certificate(cert)
        assert str(err.value) == "attained genus lacks a complete discharge report"


class TestWitnessSerialization:
    def test_a_witness_is_its_ske_certificate(self):
        assert GENUS.inputs == {"genus": int, "witnesses": [SKE]}

    def test_witness_round_trip(self):
        cert = certify_genus(2)
        w = cert.witnesses[1]
        schema = GENUS.inputs["witnesses"][0]
        back = read(schema, json.loads(json.dumps(write(schema, w))))
        assert verify_certificate(back) == w

    def test_pasted_detail_is_dropped(self):
        # older certificates carry an unverified "detail"; the reader drops
        # it, though the comparison with the rebuild refuses it
        cert = certify_genus(22)
        data = json.loads(json.dumps(cert.to_dict()))
        for w in data["witnesses"]:
            assert "detail" not in w
            w["detail"] = {"case": "g", "primes": [999], "covectors": []}
        back = verify_genus_certificate(read(GENUS, data))
        assert back.to_dict() == cert.to_dict()
        with pytest.raises(ValueError, match=r"states witnesses\[0\]\.detail"):
            replayed(data)
