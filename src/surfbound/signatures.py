"""Exact arithmetic on cocompact Fuchsian signatures.

A signature (g; m_1, ..., m_k) records the orbit genus g and the elliptic
periods m_j >= 2 of a cocompact Fuchsian group, presented as

    < a_1, b_1, ..., a_g, b_g, c_1, ..., c_k |
      c_j^{m_j} = 1,  [a_1,b_1]...[a_g,b_g] c_1 ... c_k = 1 >.

All invariants here are exact: the normalized measure lives in units of pi
as a Fraction, genus bookkeeping is integer arithmetic, the abelianization
is in closed form.  No floating point is used anywhere.  This leaf layer
imports no other surfbound module, and fractions only where a Fraction is
built, so kernel_genus, and with it an epimorphism search, does not load
it.  Small integers are factored here, and is_prime lives here too.

The module also ships a plain-text table of the arithmetic signatures with
measure below pi; the loader re-verifies every row on load, cross-multiplying
in integers, and refuses to serve a table that does not reproduce its own
stated invariants.  Reading the table does not load fractions.
"""

from functools import cache
from math import gcd, lcm
import re
from typing import NamedTuple

FLAG_VERIFIED = "verified-by-literature"
FLAG_UNVERIFIED = "included-unverified"


class NotAdmissible(ValueError):
    """The signature has measure <= 0 and bounds no cocompact group."""


class NonIntegralGenus(ValueError):
    """An index that cannot correspond to a torsion-free kernel of this signature."""


class TableCorrupt(ValueError):
    """The signature data file failed parsing or self-verification."""


class _SignatureFields(NamedTuple):
    genus: int
    periods: tuple


class Signature(_SignatureFields):
    """(g; m_1, ..., m_k) with sorted periods; orders as (genus, periods).

    Validation needs __new__, which NamedTuple forbids in its own body,
    hence the field base class.
    """

    __slots__ = ()

    def __new__(cls, genus, periods):
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise TypeError(f"genus must be an integer, got {genus!r:.60}")
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        for m in periods:
            if not isinstance(m, int) or m < 2:
                raise ValueError(f"periods must be integers >= 2, got {periods}")
        return super().__new__(cls, genus, tuple(sorted(periods)))

    def __str__(self):
        body = ",".join(str(m) for m in self.periods)
        if self.genus == 0:
            return f"({body})"
        return f"({self.genus};{body})" if body else f"({self.genus};)"


def _measure_terms(sig):
    """measure/pi as an unreduced (numerator, denominator) pair of integers,
    summed over the common denominator lcm(m_j) > 0."""
    den = lcm(*sig.periods)
    total = (2 * sig.genus - 2) * den + sum(den - den // m for m in sig.periods)
    return 2 * total, den


def _reduced(num, den):
    """(num, den) divided by their gcd; lowest terms when den > 0."""
    d = gcd(num, den)
    return num // d, den // d


def _ratio_text(num, den):
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    num, den = _reduced(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


def _admissible_terms(sig):
    """_measure_terms(sig); NotAdmissible unless the measure is positive."""
    num, den = _measure_terms(sig)
    if num <= 0:
        raise NotAdmissible(f"signature {sig} has measure {_ratio_text(num, den)}*pi <= 0")
    return num, den


def measure(sig):
    """Normalized co-area of the signature, in units of pi (exact Fraction).

    measure/pi = 2*(2g - 2 + sum_j (1 - 1/m_j)); positive iff the signature
    is realized by a cocompact Fuchsian group.  Summed in integers over the
    common denominator lcm(m_j) and reduced once.
    """
    from fractions import Fraction

    return Fraction(*_measure_terms(sig))


class MeasureClass(NamedTuple):
    """The commensurability-invariant ratio q = measure/(4*pi) in lowest terms.

    For a surface kernel of index n the kernel genus is 1 + n*q, so the
    automorphism bound carried by the signature is (genus' - 1)/q = s/r
    where q = r/s reduced.
    """
    mu_over_pi: "Fraction"
    q: "Fraction"

    @property
    def r(self):
        return self.q.numerator

    @property
    def s(self):
        return self.q.denominator

    @property
    def s_over_r(self):
        return 1 / self.q


def measure_class(sig):
    from fractions import Fraction

    mu = Fraction(*_admissible_terms(sig))
    return MeasureClass(mu_over_pi=mu, q=mu / 4)


def kernel_genus(sig, index):
    """Genus of a torsion-free kernel of the given index: 1 + index*q.

    Raises NotAdmissible for a signature of measure <= 0, and
    NonIntegralGenus when the index is incompatible with the signature
    (the would-be genus is not an integer).  Works in integers: with
    measure/pi = num/den, q = num/(4 den).
    """
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    num, den = _admissible_terms(sig)
    top, bottom = 4 * den + index * num, 4 * den
    if top % bottom:
        raise NonIntegralGenus(f"index {index} on {sig} gives genus "
                               f"{_ratio_text(top, bottom)}, not an integer")
    return top // bottom


class AbelianInvariants(NamedTuple):
    """Abelianized signature group: free rank plus the torsion divisor chain."""
    free_rank: int
    torsion: tuple

    def hom_count_to_cyclic(self, n):
        """Number of homomorphisms (not necessarily onto) into a cyclic group of order n."""
        count = n ** self.free_rank
        for d in self.torsion:
            count *= gcd(d, n)
        return count

    def epi_count_to_cyclic(self, n):
        """Number of epimorphisms onto a cyclic group of order n (Moebius over divisors)."""
        return sum(_moebius(n // d) * self.hom_count_to_cyclic(d) for d in _divisors(n))


def _factor(n):
    """{prime: exponent} for n >= 1, by trial division, primes ascending."""
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def _divisors(n):
    """The divisors of n >= 1, ascending."""
    divisors = [1]
    for q, e in _factor(n).items():
        divisors = [d * q ** i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def _moebius(n):
    exponents = _factor(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


class BeyondWitnessRange(ValueError):
    """is_prime cannot decide a number this large."""


# smallest composite not caught by these witnesses is > 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin, exact for every n below 3.3 * 10^24."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    if n >= _MR_LIMIT:
        raise BeyondWitnessRange(f"{n} is past the Miller-Rabin witness range (< {_MR_LIMIT})")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def abelianization(sig):
    """Abelianization of the signature group, in closed form.

    Free rank 2g.  The torsion is Z/m_1 + ... + Z/m_k modulo the diagonal,
    an element of the largest order, which spans a cyclic summand of it.
    Putting gcd and lcm in place of each pair of periods keeps the sum and
    sorts every prime's q-parts at once, leaving the invariant factors; the
    torsion is all but the last, so for each q the largest q-part is
    dropped.  Only gcds are taken: no period is factored.
    """
    chain = list(sig.periods)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            chain[i], chain[j] = gcd(chain[i], chain[j]), lcm(chain[i], chain[j])
    return AbelianInvariants(2 * sig.genus, tuple(d for d in chain[:-1] if d > 1))


class SignatureTableEntry(NamedTuple):
    """One verified table row.

    The two rational columns are kept as reduced (numerator, denominator)
    pairs of integers; mu_over_pi and s_over_r build their Fractions when
    read.
    """
    signature: Signature
    mu_pair: tuple
    sr_pair: tuple
    arithmeticity_flag: str

    @property
    def mu_over_pi(self):
        from fractions import Fraction

        return Fraction(*self.mu_pair)

    @property
    def s_over_r(self):
        from fractions import Fraction

        return Fraction(*self.sr_pair)


_ROW_RE = re.compile(
    r"^(?P<periods>\d+(?:\s+\d+)*)\s*\|\s*(?P<mu>\d+/\d+)\s*\|\s*"
    r"(?P<sr>\d+(?:/\d+)?)\s*\|\s*(?P<flag>verified-by-literature|included-unverified)$"
)


def _cell(text):
    """A table cell 'n/d' or 'n' as the integer pair (n, d)."""
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _parse_table(text, origin):
    """Parse and verify every row in integers: the stated measure/pi equals
    _measure_terms by cross-multiplication, the measure is positive, and the
    stated s/r equals 4/(measure/pi)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{origin}:{lineno}"
        m = _ROW_RE.match(line)
        if m is None:
            raise TableCorrupt(f"{where}: malformed row {raw!r}")
        periods = tuple(int(t) for t in m.group("periods").split())
        mu_num, mu_den = _cell(m.group("mu"))
        sr_num, sr_den = _cell(m.group("sr"))
        if min(periods) < 2:
            raise TableCorrupt(f"{where}: row ({','.join(map(str, periods))})"
                               " has a period below 2")
        sig = Signature(0, periods)
        if mu_den == 0:
            raise TableCorrupt(f"{where}: row {sig} states measure {m.group('mu')}*pi,"
                               " a zero denominator")
        if sr_den == 0:
            raise TableCorrupt(f"{where}: row {sig} states s/r = {m.group('sr')},"
                               " a zero denominator")
        num, den = _measure_terms(sig)
        if mu_num * den != num * mu_den:
            raise TableCorrupt(
                f"{where}: row {sig} states measure {_ratio_text(mu_num, mu_den)}*pi,"
                f" recomputed {_ratio_text(num, den)}*pi"
            )
        if num <= 0:
            raise TableCorrupt(f"{where}: row {sig} has measure {_ratio_text(num, den)}*pi <= 0")
        # s/r = 1/q = 4/(measure/pi) = 4*den/num
        if sr_num * num != 4 * den * sr_den:
            raise TableCorrupt(
                f"{where}: row {sig} states s/r = {_ratio_text(sr_num, sr_den)},"
                f" recomputed {_ratio_text(4 * den, num)}"
            )
        entries.append(SignatureTableEntry(sig, _reduced(num, den), _reduced(4 * den, num),
                                           m.group("flag")))
    if not entries:
        raise TableCorrupt(f"{origin}: no rows")
    return tuple(entries)


def signature_table(path=None):
    """The embedded table of arithmetic signatures with measure below pi, as
    a tuple of entries.

    Every row is re-verified on load (stated measure and s/r against exact
    recomputation); any mismatch raises TableCorrupt naming the row.  The
    packaged table is loaded once per process; a table read from path is
    read and verified on every call.
    """
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return _parse_table(fh.read(), str(path))
    return _packaged_table()


@cache
def _packaged_table():
    from importlib import resources

    text = resources.files("surfbound.data").joinpath("signature_table.txt").read_text("utf-8")
    return _parse_table(text, "signature_table.txt")


def render_pi(frac):
    """Exact display of a rational multiple of pi: 1/21 -> 'pi/21', 14/15 -> '14pi/15'."""
    n, d = frac.numerator, frac.denominator
    num = "pi" if n == 1 else f"{n}pi"
    return num if d == 1 else f"{num}/{d}"


def render_ratio(frac):
    n, d = frac.numerator, frac.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def parse_signature(text):
    """Parse CLI signature syntax: '2,3,7' is genus 0; 'g1p2' is (1; 2); 'g2' is (2;)."""
    text = text.strip()
    m = re.fullmatch(r"g(\d+)(?:p(.*))?", text)
    if m:
        genus = int(m.group(1))
        body = m.group(2) or ""
    else:
        genus = 0
        body = text
    if body:
        try:
            periods = tuple(int(t) for t in body.split(","))
        except ValueError:
            raise ValueError(f"cannot parse signature {text!r}")
    else:
        periods = ()
    if genus == 0 and not periods:
        raise ValueError(f"cannot parse signature {text!r}")
    return Signature(genus, periods)
