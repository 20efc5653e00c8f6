import random
from fractions import Fraction
from importlib import resources
from itertools import product
from math import gcd

import pytest

from surfbound import signatures
from surfbound.cli import main
from surfbound.linalg import cokernel_invariants
from surfbound.signatures import (
    AbelianInvariants,
    NonIntegralGenus,
    NotAdmissible,
    Signature,
    SignatureTableEntry,
    TableCorrupt,
    _ROW_RE,
    _divisors,
    _factor,
    _measure_terms,
    _moebius,
    _parse_table,
    _ratio_text,
    abelianization,
    kernel_genus,
    measure_class,
    parse_signature,
    render_pi,
    signature_table,
)


def measure(sig):
    # measure/pi of any signature, admissible or not, as one Fraction
    return Fraction(*_measure_terms(sig))


def fraction_sum_measure(sig):
    # the former runtime formula, one Fraction per period, kept as the oracle
    total = Fraction(2 * sig.genus - 2)
    for m in sig.periods:
        total += 1 - Fraction(1, m)
    return 2 * total


def brute_measure(genus, periods):
    # independent route: sum as float-free Fraction accumulation in a different order
    acc = Fraction(0)
    for m in reversed(periods):
        acc += Fraction(m - 1, m)
    return 2 * (acc + 2 * genus - 2)


class TestSignature:
    def test_periods_sorted_normal_form(self):
        assert Signature(0, (7, 2, 3)).periods == (2, 3, 7)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Signature(0, (2, 1))

    @pytest.mark.parametrize("genus", ["0", 0.0, None, True])
    def test_rejects_non_integer_genus(self, genus):
        with pytest.raises(TypeError, match="genus must be an integer"):
            Signature(genus, (2, 3, 7))

    def test_rejects_negative_genus(self):
        with pytest.raises(ValueError):
            Signature(-1, ())

    def test_str(self):
        assert str(Signature(0, (2, 3, 7))) == "(2,3,7)"
        assert str(Signature(1, (2,))) == "(1;2)"
        assert str(Signature(2, ())) == "(2;)"

    def test_ordering_is_deterministic(self):
        sigs = [Signature(0, (2, 3, 8)), Signature(0, (2, 3, 7)), Signature(1, (2,))]
        assert sorted(sigs)[0] == Signature(0, (2, 3, 7))


class TestMeasure:
    def test_hurwitz_triangle(self):
        assert measure(Signature(0, (2, 3, 7))) == Fraction(1, 21)

    def test_247(self):
        assert measure(Signature(0, (2, 4, 7))) == Fraction(3, 14)

    def test_quintuple_two(self):
        assert measure(Signature(0, (2, 2, 2, 2, 2))) == 1

    def test_genus_one_period_two(self):
        assert measure(Signature(1, (2,))) == 1

    def test_genus_two_no_periods(self):
        assert measure(Signature(2, ())) == 4

    def test_not_admissible_sphere(self):
        assert measure(Signature(0, (2, 2))) < 0

    def test_matches_independent_accumulation(self):
        rng = random.Random(7)
        for _ in range(200):
            g = rng.randrange(0, 4)
            k = rng.randrange(0, 6)
            periods = tuple(rng.randrange(2, 30) for _ in range(k))
            assert measure(Signature(g, periods)) == brute_measure(g, periods)

    def test_matches_fraction_sum_on_enumerated_signatures(self):
        sigs = oracle_enumerate(Fraction(4), 2, 5, 12)
        assert len(sigs) > 1000
        for sig in sigs:
            assert measure(sig) == fraction_sum_measure(sig)

    def test_matches_fraction_sum_on_table_rows(self):
        table = signature_table()
        assert len(table) == 74
        for entry in table:
            assert measure(entry.signature) == fraction_sum_measure(entry.signature)
            assert measure(entry.signature) == Fraction(*entry.mu_pair)

    def test_matches_fraction_sum_at_positive_genus(self):
        # admissible or not, with and without periods, including (2;)
        sigs = [Signature(g, periods) for g in range(1, 4)
                for k in range(4) for periods in product(range(2, 9), repeat=k)]
        assert Signature(2, ()) in sigs
        for sig in sigs:
            mu = measure(sig)
            assert type(mu) is Fraction
            assert mu == fraction_sum_measure(sig)


class TestMeasureClass:
    def test_hurwitz(self):
        mc = measure_class(Signature(0, (2, 3, 7)))
        assert mc.q == Fraction(1, 84)
        assert (mc.q.numerator, mc.q.denominator) == (1, 84)
        assert mc.s_over_r == 84

    def test_quintuple_two(self):
        mc = measure_class(Signature(0, (2, 2, 2, 2, 2)))
        assert mc.q == Fraction(1, 4)
        assert mc.s_over_r == 4

    def test_non_unit_numerator(self):
        mc = measure_class(Signature(0, (2, 4, 7)))
        assert mc.q == Fraction(3, 56)
        assert mc.s_over_r == Fraction(56, 3)

    def test_rejects_inadmissible(self):
        with pytest.raises(NotAdmissible):
            measure_class(Signature(0, (2, 3, 5)))


class TestKernelGenus:
    def test_hurwitz_84(self):
        assert kernel_genus(Signature(0, (2, 3, 7)), 84) == 2

    def test_quintuple_two(self):
        # q = 1/4: index 4(g-1) gives genus g
        sig = Signature(0, (2, 2, 2, 2, 2))
        for g in range(2, 40):
            assert kernel_genus(sig, 4 * (g - 1)) == g

    def test_non_integral(self):
        with pytest.raises(NonIntegralGenus):
            kernel_genus(Signature(0, (2, 3, 7)), 83)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            kernel_genus(Signature(0, (2, 3, 7)), 0)

    def test_cover_pair_composition(self):
        # (3,3,4) at index 360 then a degree-21 cover: both steps exact
        assert kernel_genus(Signature(0, (3, 3, 4)), 360) == 16


class TestAbelianization:
    # hand-computed via 2x2/3x3 Smith forms
    CASES = [
        (Signature(0, (2, 3, 8)), 0, (2,)),
        (Signature(0, (2, 2, 2, 2, 2)), 0, (2, 2, 2, 2)),
        (Signature(1, (2,)), 2, ()),
        (Signature(0, (2, 3, 7)), 0, ()),
        (Signature(0, (2, 3, 12)), 0, (6,)),
        (Signature(0, (2, 4, 6)), 0, (2, 2)),
        (Signature(0, (3, 3, 4)), 0, (3,)),
        (Signature(2, ()), 4, ()),
    ]

    @pytest.mark.parametrize("sig,rank,torsion", CASES)
    def test_frozen_values(self, sig, rank, torsion):
        inv = abelianization(sig)
        assert inv.free_rank == rank
        assert inv.torsion == torsion

    def test_torsion_divisibility_chain(self):
        rng = random.Random(11)
        for _ in range(60):
            g = rng.randrange(0, 3)
            k = rng.randrange(1, 5)
            sig = Signature(g, tuple(rng.randrange(2, 13) for _ in range(k)))
            inv = abelianization(sig)
            assert inv.free_rank == 2 * g
            for a, b in zip(inv.torsion, inv.torsion[1:]):
                assert b % a == 0

    def test_hom_count_against_exhaustive(self):
        # brute force: tuples in the abelian group (Z/n)^rank x prod Z/d_i
        # with the defining relations already folded in, counted directly
        inv = AbelianInvariants(free_rank=1, torsion=(2, 6))
        for n in (1, 2, 3, 4, 6, 12):
            brute = 0
            for x, y, z in product(range(n), repeat=3):
                if (2 * y) % n == 0 and (6 * z) % n == 0:
                    brute += 1
            assert inv.hom_count_to_cyclic(n) == brute

    def test_epi_count_against_exhaustive(self):
        # epimorphisms to C_n: images of generators must generate Z/n
        from math import gcd

        inv = AbelianInvariants(free_rank=2, torsion=(4,))
        for n in (1, 2, 3, 4, 6, 8):
            brute = 0
            for x, y, z in product(range(n), repeat=3):
                if (4 * z) % n:
                    continue
                if gcd(gcd(x, y), gcd(z, n)) == 1:
                    brute += 1
            assert inv.epi_count_to_cyclic(n) == brute

    def test_epi_count_cyclic_onto_itself(self):
        # C_m has phi-like epi counts onto C_d for d | exponent
        inv = abelianization(Signature(0, (2, 3, 12)))  # C_6
        assert inv.epi_count_to_cyclic(6) == 2
        assert inv.epi_count_to_cyclic(4) == 0
        assert inv.epi_count_to_cyclic(12) == 0

    @staticmethod
    def smith_oracle(sig):
        # the former runtime code: Smith normal form of the relation matrix,
        # generators 2g hyperbolic + k elliptic, rows m_j * c_j and sum_j c_j
        g, k = sig.genus, len(sig.periods)
        rows = [[0] * (2 * g + j) + [m] + [0] * (k - j - 1)
                for j, m in enumerate(sig.periods)]
        rows.append([0] * (2 * g) + [1] * k)
        return cokernel_invariants(rows, 2 * g + k)

    def test_closed_form_matches_smith_on_the_table(self):
        for entry in signature_table():
            assert tuple(abelianization(entry.signature)) == self.smith_oracle(entry.signature)

    def test_closed_form_matches_smith_on_random_signatures(self):
        rng = random.Random(19)
        for _ in range(3000):
            sig = Signature(rng.randrange(3),
                            tuple(rng.randrange(2, 40) for _ in range(rng.randrange(6))))
            assert tuple(abelianization(sig)) == self.smith_oracle(sig)

    def test_huge_periods_are_not_factored(self):
        # p = 10^18 + 3 is prime: trial division would need 10^9 steps
        p = 10**18 + 3
        sig = Signature(1, (2, p, p, 6 * p))
        assert abelianization(sig) == (2, (p, 2 * p))
        assert tuple(abelianization(sig)) == self.smith_oracle(sig)


class TestSmallIntegers:
    @staticmethod
    def brute_factor(n):
        factors = {}
        for q in range(2, n + 1):
            if n % q == 0 and all(q % d for d in range(2, q)):
                factors[q] = max(e for e in range(1, n.bit_length()) if n % q**e == 0)
        return factors

    def test_factor(self):
        for n in range(1, 2001):
            factors = _factor(n)
            assert factors == self.brute_factor(n)
            assert list(factors) == sorted(factors)

    def test_divisors(self):
        for n in range(1, 2001):
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_moebius(self):
        # mu is fixed by mu(1) = 1 and, for n > 1, sum over d | n of mu(d) = 0
        mu = {}
        for n in range(1, 2001):
            mu[n] = (n == 1) - sum(mu[d] for d in range(1, n) if n % d == 0)
            assert _moebius(n) == mu[n]


def oracle_enumerate(mu_bound, max_genus, max_periods, max_period):
    # independent nested-loop enumeration, deliberately unoptimized
    out = set()
    def rec(g, periods, next_min):
        sig = Signature(g, tuple(periods))
        mu = measure(sig)
        if 0 < mu < mu_bound:
            out.add(sig)
        if len(periods) >= max_periods:
            return
        for m in range(next_min, max_period + 1):
            rec(g, periods + [m], m)
    for g in range(max_genus + 1):
        rec(g, [], 2)
    return sorted(out, key=lambda s: (s.genus, s.periods))


class TestSignatureTable:
    def test_loads_and_self_verifies(self):
        table = signature_table()
        assert len(table) == 74

    def test_known_rows(self):
        table = {e.signature: e for e in signature_table()}
        e = table[Signature(0, (2, 3, 7))]
        assert Fraction(*e.mu_pair) == Fraction(1, 21)
        assert Fraction(*e.sr_pair) == 84
        e = table[Signature(0, (2, 3, 11))]
        assert Fraction(*e.sr_pair) == Fraction(132, 5)

    def test_flags(self):
        table = signature_table()
        unverified = {e.signature for e in table if e.arithmeticity_flag == "included-unverified"}
        assert unverified == {
            Signature(0, (2, 2, 3, 3)),
            Signature(0, (2, 2, 3, 4)),
            Signature(0, (2, 2, 3, 5)),
        }

    def test_all_measures_below_pi(self):
        for e in signature_table():
            assert 0 < Fraction(*e.mu_pair) < 1

    def test_packaged_table_loaded_once(self):
        table = signature_table()
        assert isinstance(table, tuple)
        assert signature_table() is table

    def test_corrupt_measure_rejected(self):
        with pytest.raises(TableCorrupt, match="recomputed"):
            _parse_table("2 3 7 | 1/20 | 84 | verified-by-literature\n", "bad.txt")

    def test_corrupt_ratio_rejected(self):
        with pytest.raises(TableCorrupt, match="s/r"):
            _parse_table("2 3 7 | 1/21 | 83 | verified-by-literature\n", "bad.txt")

    def test_malformed_row_rejected(self):
        with pytest.raises(TableCorrupt, match="malformed"):
            _parse_table("2 3 7 , 1/21 , 84\n", "bad.txt")

    def test_empty_rejected(self):
        with pytest.raises(TableCorrupt, match="no rows"):
            _parse_table("# nothing here\n", "bad.txt")

    def test_non_ascii_digit_rejected(self):
        # the row pattern takes ASCII digits only, as decimal does
        row = "2 3 \u0667 | 1/21 | 84 | verified-by-literature"
        with pytest.raises(TableCorrupt) as info:
            _parse_table(f"# header\n{row}\n", "bad.txt")
        assert str(info.value) == f"bad.txt:2: malformed row {row!r}"

    def test_number_past_the_digit_bound_rejected(self):
        with pytest.raises(TableCorrupt) as info:
            _parse_table(f"2 3 {'7' * 1001} | 1/21 | 84 | verified-by-literature\n", "bad.txt")
        assert str(info.value) == "bad.txt:1: a number has more than 1000 digits"


def fraction_parse_table(text, origin):
    # the former Fraction-based row check, kept as the oracle for the
    # integer one in _parse_table
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ROW_RE.match(line)
        if m is None:
            raise TableCorrupt(f"{origin}:{lineno}: malformed row {raw!r}")
        periods = tuple(int(t) for t in m.group("periods").split())
        mu = Fraction(m.group("mu"))
        sr = Fraction(m.group("sr"))
        sig = Signature(0, periods)
        actual_mu = measure(sig)
        if actual_mu != mu:
            raise TableCorrupt(
                f"{origin}:{lineno}: row {sig} states measure {mu}*pi, recomputed {actual_mu}*pi"
            )
        actual_sr = measure_class(sig).s_over_r
        if actual_sr != sr:
            raise TableCorrupt(
                f"{origin}:{lineno}: row {sig} states s/r = {sr}, recomputed {actual_sr}"
            )
        entries.append((sig, mu, sr, m.group("flag")))
    if not entries:
        raise TableCorrupt(f"{origin}: no rows")
    return tuple(entries)


def integer_parse_table(text, origin):
    return tuple((e.signature, Fraction(*e.mu_pair), Fraction(*e.sr_pair), e.arithmeticity_flag)
                 for e in _parse_table(text, origin))


def outcome(parse, text):
    try:
        return parse(text, "t.txt")
    except Exception as exc:
        return type(exc), str(exc)


def packaged_rows():
    text = resources.files("surfbound.data").joinpath("signature_table.txt").read_text("utf-8")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def mutated_rows(row):
    periods, mu, sr, flag = (cell.strip() for cell in row.split("|"))
    mu_num, mu_den = map(int, mu.split("/"))
    sr_num, _, sr_den = sr.partition("/")
    sr_num, sr_den = int(sr_num), int(sr_den or 1)
    cells = [(f"{2 * mu_num}/{2 * mu_den}", sr), (mu, f"{2 * sr_num}/{2 * sr_den}"), (sr, mu)]
    # off by one; a zero denominator is the one intended difference, tested
    # in TestIntegerTableCheck
    for dn, dd in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        if mu_den + dd:
            cells.append((f"{mu_num + dn}/{mu_den + dd}", sr))
        if sr_den + dd:
            cells.append((mu, f"{sr_num + dn}/{sr_den + dd}"))
    return [f"{periods} | {m} | {s} | {flag}" for m, s in cells]


class TestIntegerTableCheck:
    def test_packaged_rows_match_fraction_check(self):
        rows = packaged_rows()
        assert len(rows) == 74
        for row in rows:
            assert outcome(integer_parse_table, row) == outcome(fraction_parse_table, row)
        text = "\n".join(rows)
        assert outcome(integer_parse_table, text) == outcome(fraction_parse_table, text)

    def test_mutated_rows_match_fraction_check(self):
        accepted = rejected = 0
        for row in packaged_rows():
            for bad in mutated_rows(row):
                expected = outcome(fraction_parse_table, bad)
                assert outcome(integer_parse_table, bad) == expected, bad
                if expected[0] is TableCorrupt:
                    rejected += 1
                else:
                    assert isinstance(expected[0], tuple), expected
                    accepted += 1
        # every row's two unreduced mutations pass, and nothing else does
        assert accepted == 2 * 74
        assert rejected >= 8 * 74

    def test_columns_stored_as_reduced_pairs(self):
        (entry,) = _parse_table("2 3 11 | 10/66 | 264/10 | verified-by-literature", "t.txt")
        assert entry == SignatureTableEntry(Signature(0, (2, 3, 11)), (5, 33), (132, 5),
                                            "verified-by-literature")
        for e in signature_table():
            assert gcd(*e.mu_pair) == gcd(*e.sr_pair) == 1
            mc = measure_class(e.signature)
            assert (mc.mu_over_pi, mc.s_over_r) == (Fraction(*e.mu_pair), Fraction(*e.sr_pair))

    # the rows the Fraction check ends in a traceback or an unnamed defect on
    @pytest.mark.parametrize("row, defect", [
        ("2 3 7 | 1/0 | 84", "row (2,3,7) states measure 1/0*pi, a zero denominator"),
        ("2 3 7 | 1/21 | 84/0", "row (2,3,7) states s/r = 84/0, a zero denominator"),
        ("2 2 2 2 | 0/1 | 1", "row (2,2,2,2) has measure 0*pi <= 0"),
        ("1 3 7 | 1/21 | 84", "row (1,3,7) has a period below 2"),
    ], ids=["zero-measure-denominator", "zero-ratio-denominator", "measure-zero",
            "period-below-2"])
    def test_defect_names_origin_and_line(self, capsys, monkeypatch, row, defect):
        text = f"# header\n{row} | verified-by-literature\n"
        with pytest.raises(TableCorrupt) as info:
            _parse_table(text, "t.txt")
        assert str(info.value) == f"t.txt:2: {defect}"
        monkeypatch.setattr(signatures, "signature_table", lambda: _parse_table(text, "t.txt"))
        assert main(["table", "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"table data corrupt: t.txt:2: {defect}\n"


class TestParsing:
    def test_genus_zero(self):
        assert parse_signature("2,3,7") == Signature(0, (2, 3, 7))

    def test_with_genus(self):
        assert parse_signature("g1p2") == Signature(1, (2,))
        assert parse_signature("g2") == Signature(2, ())

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_signature("")
        with pytest.raises(ValueError):
            parse_signature("2,3,x")
        with pytest.raises(ValueError):
            parse_signature("g0")


class TestRendering:
    def test_render_pi(self):
        assert render_pi(Fraction(1, 21)) == "pi/21"
        assert render_pi(Fraction(14, 15)) == "14pi/15"
        assert render_pi(Fraction(2, 1)) == "2pi"
        assert render_pi(Fraction(1, 1)) == "pi"

    def test_ratio_text(self):
        assert _ratio_text(84, 1) == "84"
        assert _ratio_text(132, 5) == "132/5"
        # reduced as str(Fraction) would be
        assert _ratio_text(264, 10) == "132/5"
        assert _ratio_text(-6, 4) == "-3/2"
