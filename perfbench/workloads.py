"""The three workloads: their operations and the answers each must give.

An operation is one fresh `surfbound` CLI process.  A unit is a run of
operations that must stay together (a certificate and its replay); the seed
shuffles units, never the operations inside one.  Every operation carries a
check that reads its exit code and the mathematical answer in its --json
output and returns None or a one-line defect.  Stdout bytes are never
compared: which tuple a search returns first may change between versions.

The expected values below were taken from the seed implementation and are
recomputed from the library by `crosscheck.py`.
"""

import json
from dataclasses import dataclass

# certify --genus g: the bound; the genera in ATTAINED_GENERA_1000 are
# attained and need a complete discharge report
GENUS_BOUND = {
    2: 48, 3: 32, 4: 36, 5: 24, 6: 50, 7: 36, 8: 84, 9: 48, 10: 72, 11: 60,
    12: 110, 13: 72, 14: 156, 15: 84, 16: 360, 17: 96, 18: 136, 19: 108,
    20: 228, 21: 120, 22: 252, 23: 132, 24: 92, 48: 188, 60: 236,
}
ATTAINED_GENERA_1000 = (
    24, 48, 60, 84, 108, 168, 180, 228, 240, 264, 348, 360, 384, 420, 444,
    468, 480, 504, 564, 588, 600, 648, 660, 684, 720, 744, 828, 840, 864,
    888, 948, 984,
)
CATALOG_GENERA = tuple(range(2, 24))
CERTIFY_GENERA = CATALOG_GENERA + (24, 48, 60)

CONSTANTS = {
    "table_rows": 74,
    "s_max": 84,
    "r_lcm": 210,
    "primes": [2, 3, 5, 7],
    "s_ranking": [84, 48, 40, 36, 30, 24, 24, 24, 21, 20, 18, 16, 16, 15, 15,
                  15, 12, 12, 12, 12, 12, 10, 9, 8, 8, 8, 8, 8, 8, 8, 7, 6, 6,
                  6, 6, 6, 6, 6, 5, 5, 5],
}
TABLE_ROWS = 74

# frozen genus-2 cover cases: quotient order |Q| and the primes that lift
COVER_CASES = {
    "a": (8, (2, 17)),
    "b": (8, (2,)),
    "c": (16, (2,)),
    "d": (5, (5, 11)),
    "e": (10, (5, 11)),
    "f": (6, (3, 7, 13)),
    "g": (12, (3, 7, 13)),
}

# ske search --mode count: (signature, group, dedup, count)
SEARCHES = (
    ("2,3,7", "S7", False, 0),
    ("3,3,4", "A6", False, 1440),
    ("2,2,2,6", "S3*D7", False, 6048),
    ("2,2,2,4", "aff9:0,1,2,0:0,1,1,0", False, 1728),
    ("2,3,7", "perm:7:0,5,6,3,4,1,2:3,0,4,1,5,2,6", True, 2),
    ("g1p3", "A5", False, 1080),
)


@dataclass(frozen=True)
class LadderRung:
    """A cover of a cover: case `case` lifted at `base_prime` gives a
    quotient of order `quotient_order` and kernel genus `quotient_genus`,
    which is covered again at `prime`."""

    case: str
    base_prime: int
    quotient_order: int
    quotient_genus: int
    prime: int

    @property
    def cover_genus(self):
        return 1 + self.prime * (self.quotient_genus - 1)

    @property
    def cover_order(self):
        return self.prime * self.quotient_order


# one rung per base-quotient order; `prime` is the least prime with an
# invariant hyperplane for that quotient
LADDER = (
    LadderRung("b", 2, 16, 3, 2),
    LadderRung("c", 2, 32, 3, 2),
    LadderRung("g", 3, 36, 4, 3),
    LadderRung("f", 7, 42, 8, 3),
    LadderRung("e", 5, 50, 6, 5),
    LadderRung("g", 7, 84, 8, 3),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  With `stdin_from_previous` the operation reads
    the stdout of the operation before it in its unit; otherwise `stdin`."""

    name: str
    argv: tuple
    check: object
    stdin: bytes = b""
    stdin_from_previous: bool = False


class _Defect(Exception):
    pass


def _payload(rc, stdout):
    if rc != 0:
        raise _Defect(f"exit code {rc}, expected 0")
    try:
        return json.loads(stdout)
    except ValueError:
        raise _Defect("stdout is not one JSON document")


def checker(fn):
    """Turn fn(payload) -> None, raising on a wrong answer, into check(rc, stdout)."""

    def check(rc, stdout):
        try:
            fn(_payload(rc, stdout))
        except _Defect as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError) as exc:
            return f"answer is missing a field: {exc!r}"
        return None

    return check


def _expect(what, got, want):
    if got != want:
        raise _Defect(f"{what} is {got!r}, expected {want!r}")


def _check_genus_cert(cert, g):
    _expect("genus", cert["genus"], g)
    _expect(f"bound at genus {g}", cert["bound"], GENUS_BOUND[g])
    attained = g in ATTAINED_GENERA_1000
    _expect(f"attained at genus {g}", cert["attained"], attained)
    if attained:
        _expect(f"discharge complete at genus {g}", cert["discharge"]["complete"], True)


def check_certify(g):
    def fn(payload):
        _check_genus_cert(payload["certificate"], g)
        _expect("lower_bound_only", payload["lower_bound_only"], g not in ATTAINED_GENERA_1000)
    return checker(fn)


def check_verified(kind):
    def fn(payload):
        _expect("ok", payload["ok"], True)
        _expect("certificate_type", payload["certificate_type"], kind)
    return checker(fn)


@checker
def check_catalog(payload):
    certs = payload["certificates"]
    _expect("catalogued genera", [c["genus"] for c in certs], list(CATALOG_GENERA))
    for cert in certs:
        _check_genus_cert(cert, cert["genus"])


@checker
def check_attained(payload):
    rows = payload["genera"]
    _expect("attained genera", tuple(r["genus"] for r in rows), ATTAINED_GENERA_1000)
    for r in rows:
        _expect(f"prime at genus {r['genus']}", r["prime"], r["genus"] - 1)
        _expect(f"bound at genus {r['genus']}", r["bound"], 4 * (r["genus"] - 1))
        _expect(f"complete at genus {r['genus']}", r["complete"], True)


@checker
def check_cover_check(payload):
    _expect("ok", payload["ok"], True)
    lifted = {r["case"]: tuple(r["with_hyperplane"]) for r in payload["reports"]}
    _expect("lifting primes", lifted, {k: v[1] for k, v in COVER_CASES.items()})


@checker
def check_table(payload):
    _expect("rows checked", payload["checked"], TABLE_ROWS)
    _expect("consistent", payload["consistent"], True)


@checker
def check_constants(payload):
    for key, want in CONSTANTS.items():
        _expect(key, payload[key], want)


def check_search(count):
    def fn(payload):
        _expect("count", payload["count"], count)
        _expect("found", payload["found"], count > 0)
    return checker(fn)


def check_cover_case(order, p):
    def fn(payload):
        _expect("found", payload["found"], True)
        cover = payload["cover"]
        _expect("cover prime", cover["prime"], p)
        _expect("cover genus", cover["cover_genus"], 1 + p)
        _expect("cover group order", cover["cover_group_order"], p * order)
        _expect("quotient order", payload["quotient"]["group_order"], p * order)
        _expect("quotient kernel genus", payload["quotient"]["kernel_genus"], 1 + p)
    return checker(fn)


SETUP_OP = Op("constants", ("constants", "--json"), check_constants)


def catalog_units():
    units = []
    for g in CERTIFY_GENERA:
        units.append((
            Op(f"certify-{g}", ("certify", "--genus", str(g), "--json"), check_certify(g)),
            Op(f"verify-genus-{g}", ("ske", "verify", "-", "--json"),
               check_verified("genus"), stdin_from_previous=True),
        ))
    units += [
        (Op("catalog", ("catalog", "--json"), check_catalog),),
        (Op("attained-1000", ("attained", "--max", "1000", "--json"), check_attained),),
        (Op("cover-check", ("cover", "--check", "--json"), check_cover_check),),
        (Op("table-check", ("table", "--check", "--json"), check_table),),
        (SETUP_OP,),
    ]
    return units


def search_units():
    units = []
    for sig, group, dedup, count in SEARCHES:
        argv = ("ske", "search", "--signature", sig, "--group", group,
                "--mode", "count", "--json") + (("--dedup",) if dedup else ())
        units.append((Op(f"search-{sig}-{group.split(':')[0]}", argv, check_search(count)),))
    return units


def cover_units(ladder_certificates):
    """ladder_certificates: one serialized cover certificate per LADDER rung."""
    units = []
    for rung, cert in zip(LADDER, ladder_certificates):
        units.append((Op(f"verify-cover-{rung.quotient_order}", ("ske", "verify", "-", "--json"),
                         check_verified("cover"), stdin=cert),))
    for label, (order, primes) in COVER_CASES.items():
        for p in primes:
            units.append((Op(f"cover-{label}{p}", ("cover", "--case", label, "--prime", str(p), "--json"),
                             check_cover_case(order, p)),))
    return units


def build_ladder():
    """Serialized cover certificates for LADDER, each replayed once.

    Needs the surfbound package importable.  Raises RuntimeError when a rung
    does not come out as recorded.
    """
    from surfbound.covers import (
        GENUS2_COVER_CASES,
        build_cover,
        case_certificate,
        kernel_presentation,
        quotient_ske_from_cover,
        verify_cover_certificate,
    )

    cases = {c.label: c for c in GENUS2_COVER_CASES}
    out = []
    for rung in LADDER:
        base = case_certificate(cases[rung.case])
        pres = kernel_presentation(base)
        quotient = quotient_ske_from_cover(build_cover(base, rung.base_prime, presentation=pres),
                                           presentation=pres)
        if (quotient.group_order, quotient.kernel_genus) != (rung.quotient_order, rung.quotient_genus):
            raise RuntimeError(f"rung {rung}: quotient has order {quotient.group_order}"
                               f" and kernel genus {quotient.kernel_genus}")
        cover = build_cover(quotient, rung.prime)
        verify_cover_certificate(cover)
        if (cover.cover_genus, cover.cover_group_order) != (rung.cover_genus, rung.cover_order):
            raise RuntimeError(f"rung {rung}: cover has genus {cover.cover_genus}"
                               f" and order {cover.cover_group_order}")
        out.append(json.dumps(cover.to_dict(), sort_keys=True).encode())
    return out
