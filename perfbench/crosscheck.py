"""Recompute the benchmark's expected answers from the library and compare.

    python3 perfbench/crosscheck.py      # from the repository root

workloads.py records the answers the CLI must give.  This script derives
each of them again by calling surfbound directly (no CLI), prints every
disagreement and exits 1 if there is one.  It takes about a minute.
"""

import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path.cwd() / "src"))

from surfbound.bounds import attained_genera, bound_constants, certify_genus  # noqa: E402
from surfbound.covers import GENUS2_COVER_CASES, case_certificate, check_cover_cases  # noqa: E402
from surfbound.groups import construct  # noqa: E402
from surfbound.signatures import parse_signature, signature_table  # noqa: E402
from surfbound.ske import search_ske  # noqa: E402


def recomputed():
    """(name, recorded, recomputed) for every expected value."""
    rows = []
    for g in workloads.CERTIFY_GENERA:
        cert = certify_genus(g)
        rows.append((f"bound at genus {g}", workloads.GENUS_BOUND[g], cert.bound))
        if cert.attained:
            rows.append((f"discharge complete at genus {g}", True, cert.discharge.complete))
    attained = attained_genera(1000)
    rows.append(("attained genera up to 1000", workloads.ATTAINED_GENERA_1000,
                 tuple(a.genus for a in attained)))
    rows.append(("all discharges complete", True, all(a.complete for a in attained)))
    c = bound_constants()
    for key, value in (("table_rows", c.table_size), ("s_max", c.s_max), ("r_lcm", c.r_lcm),
                       ("primes", list(c.primes)), ("s_ranking", list(c.s_ranking))):
        rows.append((f"constants {key}", workloads.CONSTANTS[key], value))
    rows.append(("table rows", workloads.TABLE_ROWS, len(signature_table())))
    lifted = {r["case"]: tuple(r["with_hyperplane"]) for r in check_cover_cases()}
    for case in GENUS2_COVER_CASES:
        order, primes = workloads.COVER_CASES[case.label]
        rows.append((f"case {case.label} order", order, case_certificate(case).group_order))
        rows.append((f"case {case.label} lifting primes", primes, lifted[case.label]))
        rows.append((f"case {case.label} predicted primes", primes, case.expected_primes))
    for sig, group, dedup, count in workloads.SEARCHES:
        found = search_ske(parse_signature(sig), construct(group), mode="count", dedup=dedup)
        rows.append((f"count {sig} -> {group}", count, found))
    workloads.build_ladder()  # raises if a rung's order or genus differs
    rows.append(("cover ladder rungs", len(workloads.LADDER), len(workloads.LADDER)))
    return rows


def main():
    bad = 0
    for name, recorded, fresh in recomputed():
        if recorded != fresh:
            bad += 1
            print(f"MISMATCH {name}: recorded {recorded!r}, library gives {fresh!r}")
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
