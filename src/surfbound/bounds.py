"""Automorphism-count bounds for arithmetic surface kernels.

Two layers:

* attained genera: for g - 1 = p prime with p = 23, 47 or 59 (mod 60) the
  dihedral witness meets 4(g-1) and a discharge report shows, bound value by
  bound value, why nothing larger can act: Sylow counting, Frobenius
  complements against abelianizations, or the degree-24 orbit embedding.
  That report is the whole record of its genus, as attained_genera returns
  it, and derived from the genus alone.  The Sylow-normal step's check is the
  cover-congruence shield: none of the seven catalogued genus-2 cover cases
  lifts mod p.  They are not every genus-2 action: D4 on (2,2,2,4) and S3 on
  (2,2,3,3) contain none of the seven groups and go unchecked, so the ledger
  assumes no omitted one lifts.
* certify_genus / small_genus_catalog: per-genus certificates, each witness
  its replayable ske certificate: the dihedral witness, on DIHEDRAL_SIGNATURE,
  then the strongest known explicit actions (found by a direct search or
  through homology covers) in strictly ascending order.  certify_genus and
  the verifier's rebuild share one builder, which puts the dihedral witness
  first, the one place of the genus-level rules.

Two inputs are taken as given: the table's rows are the arithmetic
signatures of measure below pi, and the dihedral family's (2,2,2,2,2), of
measure pi and so no row, is arithmetic.  A witness must be on one of them.

The table's own invariants (bound_constants) live in signatures.  Every
command that loads this module also runs the groups and ske layers, so they
are imported here once; covers (and with it linalg) is imported only by the
discharge ledger and the cover witnesses, so the genera whose witnesses come
from a search load neither.
"""

from math import factorial
from typing import NamedTuple

from .groups import construct
# bound_constants is re-exported: the acceptance tests and the benchmark's
# crosscheck and tracer import it from this module
from .signatures import (Signature, _divisors, _factor, abelianization, bound_constants,
                         is_prime, signature_table)
from .ske import (DIHEDRAL_SIGNATURE, SKE, Schema, dihedral_witness_ske, search_ske,
                  verify_certificate, verify_ske, write)

ATTAINED_RESIDUES = (23, 47, 59)


class WitnessSearchFailed(RuntimeError):
    """A catalogued witness search came back empty."""


def attained_prime(p):
    """Whether 4(g-1) is attained at g = p + 1: p prime with p mod 60 in
    {23, 47, 59}.  The primality test runs first, so a p past its range
    raises BeyondWitnessRange whatever its residue."""
    return is_prime(p) and p % 60 in ATTAINED_RESIDUES


def sylow_count_options(p, ratio):
    """The Sylow p-counts d > 1 a group of order p*ratio could have: d | ratio, d = 1 mod p."""
    return [d for d in _divisors(ratio) if d % p == 1 and d > 1]


def sylow_forces_normal(p, ratio):
    """Whether a group of order p*ratio must have a normal Sylow p-subgroup."""
    return not sylow_count_options(p, ratio)


def frobenius_obstruction(p, s):
    """Discharge order p*s when the Sylow count would have to be s itself.

    A self-normalizing Sylow p-subgroup forces a normal p-complement, hence
    an epimorphism onto the cyclic group of order p; the signatures with
    integer bound value s must then surject onto it abelianly.  The facts
    record the epimorphism counts, which must all be zero.
    """
    table = signature_table()
    exceptions = sylow_count_options(p, s)
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
    exceptions = sylow_count_options(p, s)
    facts = {
        "sylow_count_options": exceptions,
        "degree_is_p_plus_1": exceptions == [p + 1],
        "degree_not_prime_power": len(_factor(p + 1)) > 1,
        "fixed_point_margin_ok": 2 < (p + 1 - 2) // 2,
        "overgroup_orders": dict(DEGREE24_OVERGROUPS),
        "order_below_every_overgroup": all(v > p * s for v in DEGREE24_OVERGROUPS.values()),
    }
    ok = (p == 23
          and facts["degree_is_p_plus_1"]
          and facts["degree_not_prime_power"]
          and facts["fixed_point_margin_ok"]
          and facts["order_below_every_overgroup"])
    return facts, ok


class DischargeEntry(NamedTuple):
    """A ledger step: facts are the inputs and steps of its check, each
    stated once, ok is that check, and the prime is the report's."""

    method: str
    bounds_covered: tuple
    facts: dict
    ok: bool


class DischargeReport(NamedTuple):
    """The ledger of prime p, the whole record of the attained genus p + 1:
    bound is the order 4p the dihedral witness attains there, and the bounds
    field holds the table values s whose orders p*s the entries discharge;
    it is complete when every entry holds and together they cover exactly those."""

    prime: int
    bounds: tuple
    entries: tuple

    @property
    def complete(self):
        return (all(e.ok for e in self.entries)
                and {s for e in self.entries for s in e.bounds_covered} == set(self.bounds))

    @property
    def genus(self):
        return self.prime + 1

    @property
    def bound(self):
        return 4 * self.prime

    def to_dict(self):
        return write(_LEDGER, self)


def discharge_prime(p):
    """Why no group larger than 4p acts at genus p + 1, bound value by value.

    Candidate orders are p times an integer bound value s > 4 from the table
    (fractional multipliers are excluded because their denominators are below
    p).  Every s falls to a forced normal Sylow subgroup, a Frobenius
    complement or the degree-24 orbit embedding.
    """
    from .covers import GENUS2_COVER_CASES

    if not attained_prime(p):
        raise ValueError(f"{p} is not an attained prime")
    table = signature_table()
    entries = []

    r_values = sorted({e.sr_pair[1] for e in table})
    entries.append(DischargeEntry("denominator-exclusion", (), {"denominators": r_values},
                                  max(r_values) < p))

    svals = sorted({s for s, r in (e.sr_pair for e in table) if r == 1 and s > 4},
                   reverse=True)
    forced = tuple(s for s in svals if sylow_forces_normal(p, s))
    # a normal Sylow p-subgroup P would leave Q = G/P acting on genus 2 with
    # a Q-invariant hyperplane mod p: the forced values fall when no case lifts
    shield = {f"case_{case.label}_lifts": case.condition_holds(p)
              for case in GENUS2_COVER_CASES}
    entries.append(DischargeEntry("sylow-normal", forced, shield, not any(shield.values())))
    for s in svals:
        if s in forced:
            continue
        if p == 23:
            facts, ok = degree24_obstruction(p, s)
            entries.append(DischargeEntry("sylow-orbit-embedding", (s,), facts, ok))
        else:
            facts, ok = frobenius_obstruction(p, s)
            entries.append(DischargeEntry("frobenius-quotient", (s,), facts, ok))

    return DischargeReport(prime=p, bounds=tuple(svals), entries=tuple(entries))


def attained_genera(limit):
    """The ledgers of the genera g <= limit where 4(g-1) is exact, ascending."""
    return [discharge_prime(p) for p in range(1, limit) if attained_prime(p)]


class GenusCertificate(NamedTuple):
    """Best certified automorphism count for one genus, with all evidence:
    the witnesses are ske certificates, the dihedral one first, in strictly
    ascending order, so the bound is the last one's.  Whether 4(g-1) is
    attained, and the discharge ledger that shows it (None where it is not),
    are derived from the genus, so a certificate read from JSON has them too."""

    genus: int
    witnesses: tuple

    @property
    def bound(self):
        return self.witnesses[-1].group_order

    @property
    def attained(self):
        return attained_prime(self.genus - 1)

    @property
    def discharge(self):
        return discharge_prime(self.genus - 1) if self.attained else None

    def to_dict(self):
        return write(GENUS, self)


# the ledger is typed, as a malformed one is refused before any replay, but
# never decoded: it is only rebuilt and compared
_ENTRY = Schema(None, {}, {"method": object, "bounds_covered": list, "facts": object,
                           "ok": object})
_LEDGER = Schema(None, {}, {"prime": object, "bounds": list, "entries": [_ENTRY],
                            "complete": object})
GENUS = Schema("genus",
               {"genus": int, "witnesses": [SKE]},
               {"bound": int, "attained": object, "discharge": (None, _LEDGER)}, GenusCertificate)


def _search_witness(sig, descriptor):
    group = construct(descriptor)
    images = search_ske(sig, group, mode="first")
    if images is None:
        raise WitnessSearchFailed(f"no epimorphism {sig} -> {descriptor}")
    return verify_ske(sig, group, images)


def _cover_witness(label, primes):
    from .covers import case_by_label, case_certificate, lift

    cert = case_certificate(case_by_label(label))
    for p in primes:
        cert = lift(cert, p)[1]
    return cert


# catalogued strongest witnesses for small genera, each entry its builder
# and the builder's arguments; every entry is replayed, never trusted
CATALOG_ROUTES = {
    2: ((_search_witness, Signature(0, (2, 3, 8)), "GL23"),),
    3: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*C2"), (_cover_witness, "c", (2,))),
    4: ((_cover_witness, "g", (3,)),),
    5: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*V4"),),
    6: ((_cover_witness, "e", (5,)),),
    7: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D3"),),
    8: ((_cover_witness, "g", (7,)),),
    9: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D4"),),
    10: ((_search_witness, Signature(0, (2, 2, 2, 4)), "aff9:0,1,2,0:0,1,1,0"),),
    11: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D5"),),
    12: ((_cover_witness, "e", (11,)),),
    13: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D6"),),
    14: ((_cover_witness, "g", (13,)),),
    15: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D7"),),
    16: ((_search_witness, Signature(0, (3, 3, 4)), "A6"),),
    17: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D8"),),
    18: ((_cover_witness, "a", (17,)),),
    19: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D9"),),
    20: ((_cover_witness, "g", (19,)),),
    21: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D10"),),
    22: ((_cover_witness, "g", (3, 7)),),
    23: ((_search_witness, Signature(0, (2, 2, 2, 6)), "S3*D11"),),
}


def certify_genus(g):
    """Certificate for the best known automorphism count at genus g.

    Always contains the dihedral witness of order 4(g-1), whose builder
    refuses g < 2; catalogued genera add the stronger explicit action.  For
    attained genera the discharge report documents exactness of 4(g-1).
    """
    return _genus_certificate(g, [build(*args) for build, *args in CATALOG_ROUTES.get(g, ())])


def _genus_certificate(genus, witnesses):
    """The certificate of the dihedral witness of this genus, put first, and
    these ascending table-row witnesses.  ValueError unless, at an attained
    genus, the bound is exactly its ledger's and the ledger complete."""
    cert = GenusCertificate(genus, (dihedral_witness_ske(genus), *witnesses))
    if (discharge := cert.discharge) and cert.bound != discharge.bound:
        raise ValueError("attained genus must have bound exactly 4(g-1)")
    if discharge and not discharge.complete:
        raise ValueError("attained genus lacks a complete discharge report")
    return cert


def verify_genus_certificate(cert):
    """Rebuild a genus certificate: witnesses[0] must be on DIHEDRAL_SIGNATURE,
    and each later one, before its replay, on a table row and of order above
    the one before it.  The builder puts the dihedral witness first, so the
    stated witnesses[0] is compared with it, never replayed."""
    if not cert.witnesses or cert.witnesses[0].signature != DIHEDRAL_SIGNATURE:
        raise ValueError(f"witnesses[0] must be the dihedral witness, on {DIHEDRAL_SIGNATURE}")
    arithmetic = {row.signature for row in signature_table()}
    for i, (before, w) in enumerate(zip(cert.witnesses, cert.witnesses[1:]), 1):
        if w.signature not in arithmetic:
            raise ValueError(f"witnesses[{i}] has signature {w.signature}, not an arithmetic one")
        if w.group_order <= before.group_order:
            raise ValueError(f"witnesses[{i}] has order {w.group_order}, "
                             f"not above witnesses[{i - 1}]'s {before.group_order}")
        # a witness holds its inputs alone, so its replay rebuilds it as it is
        if (genus := verify_certificate(w).kernel_genus) != cert.genus:
            raise ValueError(f"witnesses[{i}] has kernel genus {genus}, "
                             f"certificate claims genus {cert.genus}")
    return _genus_certificate(cert.genus, cert.witnesses[1:])


def small_genus_catalog():
    """Certificates keyed by the genera of CATALOG_ROUTES, acceptance test
    c08's entry point; the `catalog` command certifies one genus at a time
    instead (cli._catalog_row), so as not to hold every witness group at once."""
    return {g: certify_genus(g) for g in CATALOG_ROUTES}
