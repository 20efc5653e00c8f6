"""Acceptance suite: one test per contract criterion, at stated tolerances.

Every numeric claim is either recomputed here from first principles or
replayed through the public verification entry points.  Two sub-asserts in
the constants criterion (c02a and c02d) fail by design: the values they
demand are not what the 74-row table yields, and the assertion messages
spell out the recomputation.  Nothing here is loosened to force a pass.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from surfbound.bounds import (
    attained_genera,
    bound_constants,
    small_genus_catalog,
    verify_genus_certificate,
)
from surfbound.covers import (
    GENUS2_COVER_CASES,
    case_certificate,
    check_cover_cases,
    homology_action,
    kernel_presentation,
)
from surfbound.groups import (
    DihedralGroup,
    CyclicGroup,
    alternating,
    construct,
    dihedral_perm,
    klein_four,
    perm_mul,
)
from surfbound.signatures import (
    NonIntegralGenus,
    Signature,
    abelianization,
    measure_class,
    signature_table,
)
from surfbound.ske import dihedral_witness_ske, search_ske, verify_certificate, verify_ske
from surfbound.cli import main


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_c01_table_reproduction(capsys):
    t0 = time.monotonic()
    code, data = run_cli_json(capsys, "table", "--check", "--json")
    assert code == 0
    assert data["checked"] == 74
    assert data["consistent"] is True
    spot = {r["signature"]: r["bound_ratio"] for r in data["rows"]}
    assert spot["(2,3,7)"] == "84"
    assert spot["(2,2,3,5)"] == "30/7"
    mc = measure_class(Signature(0, (2, 3, 7)))
    assert mc.mu_over_pi == Fraction(1, 21)
    assert mc.s_over_r == 84
    mc = measure_class(Signature(0, (2, 2, 3, 5)))
    assert mc.mu_over_pi == Fraction(14, 15)
    assert mc.s_over_r == Fraction(30, 7)
    assert time.monotonic() - t0 < 1.0


def test_c02a_denominator_lcm_constant():
    c = bound_constants()
    assert c.r_lcm == 420, (
        f"the lcm of the bound denominators over all {c.table_size} rows "
        f"computes to {c.r_lcm}; the denominators occurring are 1, 2, 3, 5, 7 "
        f"and no row contributes a factor 4, so the expected constant 420 "
        f"(= 2 * {c.r_lcm}) is not reproducible from the table"
    )


def test_c02b_largest_integer_bound():
    c = bound_constants()
    assert c.s_max == 84


def test_c02c_denominator_prime_support():
    c = bound_constants()
    assert set(c.primes) == {2, 3, 5, 7}


def test_c02d_integer_bound_ranking_prefix():
    c = bound_constants()
    expected = (84, 48, 40, 36, 30, 24, 24, 21)
    assert c.s_ranking[:8] == expected, (
        f"the descending integer bound values begin {c.s_ranking[:9]}; the "
        f"value 24 occurs three times ((2,3,12), (2,4,6) and (3,3,4) all "
        f"yield it), so an 8-term prefix holding only two 24s before the 21 "
        f"cannot be produced without dropping a row"
    )


def test_c03_dihedral_family_meets_floor_up_to_1000():
    t0 = time.monotonic()
    for g in range(2, 1001):
        cert = dihedral_witness_ske(g)
        assert cert.kernel_genus == g
        assert cert.group_order == 4 * (g - 1)
        verify_certificate(cert)
    assert time.monotonic() - t0 < 5.0


SEARCH_EXPECTATIONS = [
    ("2,3,8", "GL23", 48),
    ("3,3,4", "A6", 360),
    ("2,2,2,4", "aff9:0,1,2,0:0,1,1,0", 72),
] + [
    ("2,2,2,6", d, 12 * m)
    for m, d in [(1, "S3*C2"), (2, "S3*V4")]
    + [(m, f"S3*D{m}") for m in range(3, 12)]
]


def test_c04_epimorphism_search_suite():
    from surfbound.signatures import parse_signature

    for sig_text, descriptor, order in SEARCH_EXPECTATIONS:
        t0 = time.monotonic()
        sig = parse_signature(sig_text)
        group = construct(descriptor)
        assert group.order == order
        images = search_ske(sig, group, mode="first")
        assert images is not None, f"no epimorphism {sig} -> {descriptor}"
        verify_ske(sig, group, images)
        assert time.monotonic() - t0 < 60.0

    # non-existence half: genus-1 orbifold onto the abelian V4 forces a
    # trivial commutator, killing the order-2 elliptic image
    t0 = time.monotonic()
    assert search_ske(Signature(1, (2,)), klein_four(), mode="count") == 0
    assert time.monotonic() - t0 < 60.0

    # and five involutions cannot map anywhere in C3: the kernel genus at
    # index 3 is already fractional
    t0 = time.monotonic()
    with pytest.raises(NonIntegralGenus):
        search_ske(Signature(0, (2, 2, 2, 2, 2)), CyclicGroup(3), mode="count")
    assert time.monotonic() - t0 < 60.0


def test_c05_homology_dimension_four_everywhere():
    t0 = time.monotonic()
    for case in GENUS2_COVER_CASES:
        pres = kernel_presentation(case_certificate(case))
        for p in (2, 3, 5, 7, 11, 13, 17):
            act = homology_action(pres, p)
            assert act.dim == 4, (case.label, p, act.dim)
    assert time.monotonic() - t0 < 30.0


def test_c06_lifting_congruences_exact():
    expected = {
        "a": [2, 17],
        "b": [2],
        "c": [2],
        "d": [5, 11],
        "e": [5, 11],
        "f": [3, 7, 13],
        "g": [3, 7, 13],
    }
    reports = check_cover_cases()
    assert len(reports) == 7
    for rep in reports:
        assert list(rep["with_hyperplane"]) == expected[rep["case"]], rep["case"]
        assert rep["match"], rep["case"]


def test_c07_attained_genera_with_discharge_ledgers(capsys):
    code, data = run_cli_json(capsys, "attained", "--max", "120", "--json")
    assert code == 0
    rows = {row["genus"]: row for row in data["genera"]}
    assert sorted(rows) == [24, 48, 60, 84, 108]
    assert all(row["complete"] for row in rows.values())

    def methods(genus):
        out = {}
        for e in rows[genus]["discharge"]["entries"]:
            out.setdefault(e["method"], []).extend(e["bounds_covered"])
        return out

    # genus 60: every bound value falls to forced Sylow normality
    m60 = methods(60)
    assert "frobenius-quotient" not in m60
    assert "sylow-orbit-embedding" not in m60
    assert set(m60["sylow-normal"]) == set(rows[60]["discharge"]["bounds"])

    # genus 84: the single exception 84 = 1 mod 83 dies by Frobenius complement
    assert methods(84)["frobenius-quotient"] == [84]

    # genus 48: Frobenius at bound value 48, blocked by the order-2
    # abelianization of (2,3,8)
    frob48 = [e for e in rows[48]["discharge"]["entries"]
              if e["method"] == "frobenius-quotient"]
    assert [e["bounds_covered"] for e in frob48] == [[48]]
    assert frob48[0]["facts"]["signatures"] == ["(2,3,8)"]
    assert frob48[0]["facts"]["cyclic_quotient_counts"] == {"(2,3,8)": 0}

    # genus 24: degree-24 orbit embedding at bound values 24 and 48 with all
    # three arithmetic sub-checks
    deg24 = [e for e in rows[24]["discharge"]["entries"]
             if e["method"] == "sylow-orbit-embedding"]
    assert sorted(b for e in deg24 for b in e["bounds_covered"]) == [24, 48]
    for e in deg24:
        assert e["facts"]["degree_not_prime_power"] is True
        assert e["facts"]["fixed_point_margin_ok"] is True
        assert e["facts"]["order_below_every_overgroup"] is True


def test_c08_small_genus_catalog_and_minimality():
    t0 = time.monotonic()
    catalog = small_genus_catalog()
    assert sorted(catalog) == list(range(2, 24))
    for g, cert in catalog.items():
        verify_genus_certificate(cert)
        assert cert.bound > 4 * (g - 1), (g, cert.bound)
    assert catalog[2].bound == 48
    assert catalog[10].bound == 72
    assert catalog[16].bound == 360
    assert catalog[22].bound == 252
    # minimality: strict excess below genus 24, exact attainment at 24
    assert [a.genus for a in attained_genera(23)] == []
    first = attained_genera(24)
    assert [a.genus for a in first] == [24]
    assert first[0].bound == 92
    assert first[0].complete
    assert time.monotonic() - t0 < 300.0


# instances with group order <= 12 and at most 5 canonical generators
SMALL_INSTANCES = [
    (Signature(0, (2, 2, 2, 2, 2)), klein_four),
    (Signature(0, (2, 2, 2, 3)), lambda: dihedral_perm(6)),
    (Signature(0, (2, 2, 3, 3)), lambda: alternating(4)),
    (Signature(0, (2, 2, 3, 3)), lambda: CyclicGroup(6)),
    (Signature(0, (2, 2, 2, 4)), lambda: dihedral_perm(4)),
    (Signature(1, (2, 2)), klein_four),
    (Signature(1, (2,)), klein_four),
    (Signature(1, (2,)), lambda: CyclicGroup(4)),
    (Signature(1, (3,)), lambda: CyclicGroup(9)),
    (Signature(2, ()), lambda: CyclicGroup(5)),
]


def brute_accepts(sig, group, images):
    g = sig.genus
    for j, m in enumerate(sig.periods):
        if group.element_order(images[2 * g + j]) != m:
            return False
    prod = group.identity
    for i in range(g):
        a, b = images[2 * i], images[2 * i + 1]
        for x in (a, b, group.inv(a), group.inv(b)):
            prod = group.mul(prod, x)
    for j in range(len(sig.periods)):
        prod = group.mul(prod, images[2 * g + j])
    if prod != group.identity:
        return False
    return group.generates(images)


def verifier_accepts(sig, group, images):
    try:
        verify_ske(sig, group, images)
        return True
    except ValueError:
        return False


def test_c09_oracle_equivalence():
    # verifier vs plain enumeration, every image tuple of every instance
    for sig, make in SMALL_INSTANCES:
        group = make()
        assert group.order <= 12
        slots = 2 * sig.genus + len(sig.periods)
        assert slots <= 5
        agree = 0
        for images in itertools.product(group.elements, repeat=slots):
            assert verifier_accepts(sig, group, images) == brute_accepts(
                sig, group, images
            ), (str(sig), group.descriptor, images)
            agree += 1
        assert agree == group.order ** slots

    # abelian quotient counts vs exhaustive tuple counts
    for sig in (Signature(0, (2, 3, 7)), Signature(0, (2, 2, 3, 3)),
                Signature(1, (2, 2)), Signature(2, ())):
        inv = abelianization(sig)
        g, periods = sig.genus, sig.periods
        slots = 2 * g + len(periods)
        for n in range(1, 9):
            total = onto = 0
            for tup in itertools.product(range(n), repeat=slots):
                if any((m * tup[2 * g + j]) % n for j, m in enumerate(periods)):
                    continue
                if sum(tup[2 * g:]) % n:
                    continue
                total += 1
                if math.gcd(n, *tup) == 1:
                    onto += 1
            assert inv.hom_count_to_cyclic(n) == total, (str(sig), n)
            assert inv.epi_count_to_cyclic(n) == onto, (str(sig), n)

    # parametric dihedral arithmetic vs the permutation model, n <= 50
    for n in range(3, 51):
        par = DihedralGroup(n)
        perm = dihedral_perm(n)
        assert par.order == perm.order == 2 * n
        rot = perm.generators[0]
        ref = perm.generators[1]
        image = {}
        for (i, e) in par.elements:
            x = perm.identity
            for _ in range(i):
                x = perm_mul(x, rot)
            if e:
                x = perm_mul(x, ref)
            image[(i, e)] = x
        assert len(set(image.values())) == 2 * n
        for a in ((1, 0), (0, 1)):
            for b in par.elements:
                assert image[par.mul(a, b)] == perm_mul(image[a], image[b])
        for key, x in image.items():
            assert par.element_order(key) == perm.element_order(x)


def test_c10_scope_boundary_is_enforced():
    # the bound machinery only claims attained primes; everything else is
    # refused rather than silently extrapolated
    from surfbound.bounds import attained_prime, discharge_prime

    for p in (29, 31, 61, 101):
        assert not attained_prime(p)
        with pytest.raises(ValueError):
            discharge_prime(p)
    # and each discharge that is claimed is complete at every checked prime
    for p in (23, 47, 59, 83, 107):
        assert discharge_prime(p).complete
