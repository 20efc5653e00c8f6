"""Automorphism-count bounds for arithmetic surface kernels.

Three layers:

* bound_constants: exact invariants of the embedded signature table (largest
  integer bound multiplier, lcm of the bound denominators, its prime support,
  and the ranked integer bound values).
* attained genera: for g - 1 = p prime with p = 23, 47 or 59 (mod 60) the
  dihedral witness meets 4(g-1) and a discharge report shows, bound value by
  bound value, why nothing larger can act: Sylow counting, Frobenius
  complements against abelianizations, or the degree-24 orbit embedding.
  The cover-congruence shield checks that none of the seven catalogued
  genus-2 cover cases lifts mod p.  They are not every genus-2 action: D4 on
  (2,2,2,4) and S3 on (2,2,3,3) contain none of the seven groups and go
  unchecked, so the ledger also assumes no omitted action lifts at p.
* certify_genus / small_genus_catalog: per-genus certificates bundling the
  dihedral witness with the strongest known explicit action (direct searches
  and homology covers), all replayable.

bound_constants reads only the signature table; the groups and ske layers
are imported by the witness, certificate and verify functions that use them,
so `constants` loads neither.
"""

from math import factorial, lcm
from typing import NamedTuple

from .signatures import Signature, abelianization, is_prime, signature_table

ATTAINED_RESIDUES = (23, 47, 59)


class WitnessSearchFailed(RuntimeError):
    """A catalogued witness search came back empty."""


class BoundConstants(NamedTuple):
    """Invariants of the signature table driving every bound argument."""

    s_max: int
    r_lcm: int
    primes: tuple
    s_ranking: tuple
    table_size: int


def bound_constants():
    table = signature_table()
    integer_bounds = [s for s, r in (e.sr_pair for e in table) if r == 1]
    r_lcm = lcm(*(e.sr_pair[1] for e in table))
    primes = tuple(p for p in range(2, r_lcm + 1) if is_prime(p) and r_lcm % p == 0)
    return BoundConstants(
        s_max=max(integer_bounds),
        r_lcm=r_lcm,
        primes=primes,
        s_ranking=tuple(sorted(integer_bounds, reverse=True)),
        table_size=len(table),
    )


class PrimeConditions(NamedTuple):
    """Attainedness test for a prime: p prime with p mod 60 in {23, 47, 59}."""

    p: int
    prime: bool
    residue_mod_60: int
    attained: bool


def prime_conditions(p):
    prime = is_prime(p)
    return PrimeConditions(p, prime, p % 60, prime and p % 60 in ATTAINED_RESIDUES)


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def sylow_forces_normal(p, ratio):
    """Whether a group of order p*ratio must have a normal Sylow p-subgroup.

    The Sylow count divides ratio and is 1 mod p; True when 1 is the only
    such divisor.
    """
    return all(d == 1 for d in _divisors(ratio) if d % p == 1)


def _is_prime_power(n):
    for q in range(2, n + 1):
        if not is_prime(q):
            continue
        m = n
        while m % q == 0:
            m //= q
        if m == 1:
            return True
        if q * q > n:
            break
    return False


def frobenius_obstruction(p, s):
    """Discharge order p*s when the Sylow count would have to be s itself.

    A self-normalizing Sylow p-subgroup forces a normal p-complement, hence
    an epimorphism onto the cyclic group of order p; the signatures with
    integer bound value s must then surject onto it abelianly.  The facts
    record the epimorphism counts, which must all be zero.
    """
    table = signature_table()
    exceptions = [d for d in _divisors(s) if d % p == 1 and d > 1]
    sigs = [e.signature for e in table if e.sr_pair == (s, 1)]
    epi_counts = {str(sig): abelianization(sig).epi_count_to_cyclic(p) for sig in sigs}
    facts = {
        "sylow_count_options": exceptions,
        "self_normalizing_only": exceptions == [s],
        "signatures": [str(sig) for sig in sigs],
        "cyclic_quotient_counts": epi_counts,
    }
    ok = (facts["self_normalizing_only"] and bool(sigs)
          and all(c == 0 for c in epi_counts.values()))
    return facts, ok


DEGREE24_OVERGROUPS = {
    "PSL(2,23)": 6072,
    "PGL(2,23)": 12144,
    "M24": 244823040,
    "A24": factorial(24) // 2,
    "S24": factorial(24),
}


def degree24_obstruction(p, s):
    """Discharge order p*s at p = 23 when the Sylow count could be 24.

    With 24 Sylow subgroups the group acts transitively on them, an order-23
    element acting as a 23-cycle with one fixed point.  A transitive degree-24
    group containing such a cycle contains one of the known overgroups, every
    one of which is larger than p*s.
    """
    order = p * s
    exceptions = [d for d in _divisors(s) if d % p == 1 and d > 1]
    facts = {
        "sylow_count_options": exceptions,
        "sylow_count": p + 1,
        "group_order": order,
        "degree_is_p_plus_1": exceptions == [p + 1],
        "degree_not_prime_power": not _is_prime_power(p + 1),
        "p_cycle_fixed_points": 1,
        "fixed_point_margin_ok": 2 < (p + 1 - 2) // 2,
        "overgroup_orders": dict(DEGREE24_OVERGROUPS),
        "psl_order_formula": DEGREE24_OVERGROUPS["PSL(2,23)"] == p * (p + 1) * (p - 1) // 2,
        "order_below_every_overgroup": all(v > order for v in DEGREE24_OVERGROUPS.values()),
    }
    ok = (p == 23
          and facts["degree_is_p_plus_1"]
          and facts["degree_not_prime_power"]
          and facts["fixed_point_margin_ok"]
          and facts["psl_order_formula"]
          and facts["order_below_every_overgroup"])
    return facts, ok


class DischargeEntry(NamedTuple):
    prime: int
    method: str
    bounds_covered: tuple
    facts: dict
    ok: bool

    def to_dict(self):
        return {
            "prime": self.prime,
            "method": self.method,
            "bounds_covered": list(self.bounds_covered),
            "facts": _jsonable(self.facts),
            "ok": self.ok,
        }

    @staticmethod
    def from_dict(data):
        from .ske import list_field

        return DischargeEntry(
            prime=data["prime"],
            method=data["method"],
            bounds_covered=list_field(data, "bounds_covered"),
            facts=data["facts"],
            ok=data["ok"],
        )


class DischargeReport(NamedTuple):
    prime: int
    bounds: tuple
    entries: tuple
    complete: bool

    def to_dict(self):
        return {
            "prime": self.prime,
            "bounds": list(self.bounds),
            "entries": [e.to_dict() for e in self.entries],
            "complete": self.complete,
        }

    @staticmethod
    def from_dict(data):
        from .ske import list_field

        return DischargeReport(
            prime=data["prime"],
            bounds=list_field(data, "bounds"),
            entries=tuple(DischargeEntry.from_dict(e) for e in list_field(data, "entries")),
            complete=data["complete"],
        )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def discharge_prime(p):
    """Why no group larger than 4p acts at genus p + 1, bound value by value.

    Candidate orders are p times an integer bound value s > 4 from the table
    (fractional multipliers are excluded because their denominators are below
    p).  Every s is discharged by one of: forced normal Sylow subgroup plus
    the cover-congruence shield, the Frobenius complement argument, or the
    degree-24 orbit embedding.
    """
    from .covers import GENUS2_COVER_CASES

    if not prime_conditions(p).attained:
        raise ValueError(f"{p} is not an attained prime")
    table = signature_table()
    entries = []

    r_values = sorted({e.sr_pair[1] for e in table})
    denom_facts = {"denominators": r_values, "max_denominator": max(r_values),
                   "all_below_p": max(r_values) < p}
    entries.append(DischargeEntry(p, "denominator-exclusion", (),
                                  denom_facts, denom_facts["all_below_p"]))

    shield = {f"case_{case.label}_lifts": case.condition_holds(p)
              for case in GENUS2_COVER_CASES}
    entries.append(DischargeEntry(p, "cover-congruence-shield", (), shield,
                                  not any(shield.values())))

    svals = sorted({s for s, r in (e.sr_pair for e in table) if r == 1 and s > 4},
                   reverse=True)
    forced = tuple(s for s in svals if sylow_forces_normal(p, s))
    entries.append(DischargeEntry(p, "sylow-normal", forced,
                                  {"bound_values": list(forced)}, True))
    for s in svals:
        if s in forced:
            continue
        if p == 23:
            facts, ok = degree24_obstruction(p, s)
            entries.append(DischargeEntry(p, "sylow-orbit-embedding", (s,), facts, ok))
        else:
            facts, ok = frobenius_obstruction(p, s)
            entries.append(DischargeEntry(p, "frobenius-quotient", (s,), facts, ok))

    covered = set()
    for e in entries:
        if e.ok:
            covered.update(e.bounds_covered)
    complete = all(e.ok for e in entries) and covered == set(svals)
    return DischargeReport(prime=p, bounds=tuple(svals), entries=tuple(entries),
                           complete=complete)


class AttainedGenus(NamedTuple):
    genus: int
    prime: int
    bound: int
    discharge: DischargeReport

    @property
    def complete(self):
        return self.discharge.complete


def attained_genera(limit):
    """All genera g <= limit where the bound 4(g-1) is met exactly."""
    out = []
    for g in range(2, limit + 1):
        p = g - 1
        if prime_conditions(p).attained:
            out.append(AttainedGenus(genus=g, prime=p, bound=4 * p,
                                     discharge=discharge_prime(p)))
    return out


class GenusWitness(NamedTuple):
    """A route name and its certificate, which is the whole evidence.

    Certificates written by older versions carry a "detail" key; it was never
    verified and is ignored.
    """

    route: str
    certificate: "SkeCertificate"

    def to_dict(self):
        return {
            "route": self.route,
            "certificate": self.certificate.to_dict(),
        }

    @staticmethod
    def from_dict(data):
        from .ske import SkeCertificate

        if data["route"] not in ("dihedral-family", "ske-search", "homology-cover"):
            raise ValueError(f"unknown witness route {data['route']!r:.60}")
        return GenusWitness(
            route=data["route"],
            certificate=SkeCertificate.from_dict(data["certificate"]),
        )


class GenusCertificate(NamedTuple):
    """Best certified automorphism count for one genus, with all evidence."""

    genus: int
    bound: int
    witnesses: tuple
    attained: bool
    discharge: object

    def to_dict(self):
        return {
            "type": "genus",
            "genus": self.genus,
            "bound": self.bound,
            "attained": self.attained,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "discharge": self.discharge.to_dict() if self.discharge else None,
        }

    @staticmethod
    def from_dict(data):
        from .ske import int_field, list_field

        if data.get("type") != "genus":
            raise ValueError(f"not a genus certificate: {data.get('type')!r}")
        return GenusCertificate(
            genus=int_field(data, "genus"),
            bound=int_field(data, "bound"),
            witnesses=tuple(GenusWitness.from_dict(w) for w in list_field(data, "witnesses")),
            attained=data["attained"],
            discharge=(None if data["discharge"] is None
                       else DischargeReport.from_dict(data["discharge"])),
        )


# catalogued strongest witnesses for small genera; every entry is replayed,
# never trusted
CATALOG_ROUTES = {
    2: (("search", Signature(0, (2, 3, 8)), "GL23"),),
    3: (("search", Signature(0, (2, 2, 2, 6)), "S3*C2"), ("cover", "c", (2,))),
    4: (("cover", "g", (3,)),),
    5: (("search", Signature(0, (2, 2, 2, 6)), "S3*V4"),),
    6: (("cover", "e", (5,)),),
    7: (("search", Signature(0, (2, 2, 2, 6)), "S3*D3"),),
    8: (("cover", "g", (7,)),),
    9: (("search", Signature(0, (2, 2, 2, 6)), "S3*D4"),),
    10: (("search", Signature(0, (2, 2, 2, 4)), "aff9:0,1,2,0:0,1,1,0"),),
    11: (("search", Signature(0, (2, 2, 2, 6)), "S3*D5"),),
    12: (("cover", "e", (11,)),),
    13: (("search", Signature(0, (2, 2, 2, 6)), "S3*D6"),),
    14: (("cover", "g", (13,)),),
    15: (("search", Signature(0, (2, 2, 2, 6)), "S3*D7"),),
    16: (("search", Signature(0, (3, 3, 4)), "A6"),),
    17: (("search", Signature(0, (2, 2, 2, 6)), "S3*D8"),),
    18: (("cover", "a", (17,)),),
    19: (("search", Signature(0, (2, 2, 2, 6)), "S3*D9"),),
    20: (("cover", "g", (19,)),),
    21: (("search", Signature(0, (2, 2, 2, 6)), "S3*D10"),),
    22: (("cover", "g", (3, 7)),),
    23: (("search", Signature(0, (2, 2, 2, 6)), "S3*D11"),),
}

CATALOG_RANGE = range(2, 24)


def _search_witness(sig, descriptor):
    from .groups import construct
    from .ske import search_ske, verify_ske

    group = construct(descriptor)
    images = search_ske(sig, group, mode="first")
    if images is None:
        raise WitnessSearchFailed(f"no epimorphism {sig} -> {descriptor}")
    cert = verify_ske(sig, group, images)
    return GenusWitness(route="ske-search", certificate=cert)


def _cover_witness(label, primes):
    from .covers import (
        build_cover,
        case_by_label,
        case_certificate,
        kernel_presentation,
        quotient_ske_from_cover,
    )

    cert = case_certificate(case_by_label(label))
    for p in primes:
        pres = kernel_presentation(cert)
        cover = build_cover(cert, p, presentation=pres)
        cert = quotient_ske_from_cover(cover, presentation=pres)
    return GenusWitness(route="homology-cover", certificate=cert)


def _build_route(spec):
    if spec[0] == "search":
        return _search_witness(spec[1], spec[2])
    if spec[0] == "cover":
        return _cover_witness(spec[1], spec[2])
    raise ValueError(f"unknown witness route {spec[0]!r}")


def certify_genus(g):
    """Certificate for the best known automorphism count at genus g.

    Always contains the dihedral witness of order 4(g-1); catalogued genera
    add the stronger explicit action.  For attained genera the discharge
    report documents exactness of 4(g-1).
    """
    from .ske import dihedral_witness_ske

    if g < 2:
        raise ValueError(f"need genus >= 2, got {g}")
    witnesses = [GenusWitness(route="dihedral-family", certificate=dihedral_witness_ske(g))]
    for spec in CATALOG_ROUTES.get(g, ()):
        witnesses.append(_build_route(spec))
    cond = prime_conditions(g - 1)
    discharge = discharge_prime(g - 1) if cond.attained else None
    bound = max(w.certificate.group_order for w in witnesses)
    return GenusCertificate(
        genus=g,
        bound=bound,
        witnesses=tuple(witnesses),
        attained=cond.attained,
        discharge=discharge,
    )


def verify_genus_certificate(cert):
    """Replay every witness of a genus certificate, rebuild what it records
    from them and from the genus, and compare."""
    from .ske import check_recorded, dihedral_witness_ske, verify_certificate

    if not cert.witnesses:
        raise ValueError("certificate has no witnesses")
    routes = [w.route for w in cert.witnesses]
    if "dihedral-family" not in routes:
        raise ValueError("certificate is missing the dihedral witness")
    for w in cert.witnesses:
        fresh = verify_certificate(w.certificate)
        if fresh.kernel_genus != cert.genus:
            raise ValueError(
                f"witness {w.route} has kernel genus {fresh.kernel_genus}, "
                f"certificate claims genus {cert.genus}"
            )
    bound = max(w.certificate.group_order for w in cert.witnesses)
    attained = prime_conditions(cert.genus - 1).attained
    discharge = None
    if attained:
        if bound != 4 * (cert.genus - 1):
            raise ValueError("attained genus must have bound exactly 4(g-1)")
        discharge = discharge_prime(cert.genus - 1)
        if not discharge.complete:
            raise ValueError("attained genus lacks a complete discharge report")
    dihedral = GenusWitness("dihedral-family", dihedral_witness_ske(cert.genus))
    for w in cert.witnesses:
        if w.route == dihedral.route:
            check_recorded(w, dihedral)
    check_recorded(cert, cert._replace(bound=bound, attained=attained, discharge=discharge))
    return cert


def small_genus_catalog(genera=None):
    """Certificates for every catalogued small genus, keyed by genus."""
    genera = CATALOG_RANGE if genera is None else genera
    return {g: certify_genus(g) for g in genera}
