"""Exact arithmetic on cocompact Fuchsian signatures.

A signature (g; m_1, ..., m_k) records the orbit genus g and the elliptic
periods m_j >= 2 of a cocompact Fuchsian group; relators states the group's
presentation once, as words in a_1, b_1, ..., a_g, b_g, c_1, ..., c_k, and
long_relator is its last word alone, so a verifier never writes c_j^{m_j} out.

All invariants here are exact: each rational, such as the normalized
measure in units of pi, is a (numerator, denominator) pair of integers,
genus bookkeeping is integer arithmetic, the abelianization is in closed
form.  No floating point is used anywhere.  This leaf layer imports no
other surfbound module, and fractions only in measure_class, the one place
a Fraction is built from integers, so kernel_genus, and with it an epimorphism
search, does not load it.  Small integers are factored here, is_prime lives here
too, and so does decimal, the one reader of an integer given as text, and
resource_cap, the one reader of the resource caps CAPS states, for the
library and the CLI alike.

The module also ships a plain-text table of the arithmetic signatures with
measure below pi; the loader re-verifies every row on load, cross-multiplying
in integers, and refuses to serve a table that does not reproduce its own
stated invariants.  Reading the table does not load fractions.  The
table's invariants (bound_constants) live beside it.
"""

from functools import cache
from math import gcd, lcm
import os
import re
from typing import NamedTuple


class NotAdmissible(ValueError):
    """The signature has measure <= 0 and bounds no cocompact group."""


class NonIntegralGenus(ValueError):
    """An index that cannot correspond to a torsion-free kernel of this signature."""


class TableCorrupt(ValueError):
    """The signature data file failed parsing or self-verification."""


class NotDecimal(ValueError):
    """Text that decimal does not read as an integer."""


# the most digits decimal reads, so every integer a command prints stays
# far inside Python's 4,300-digit int-to-str limit
MAX_DIGITS = 1000


def decimal(what, text):
    """The integer text spells as an optional '-' and 1 to MAX_DIGITS ASCII
    digits (no '+', space, '_' or other digits); else NotDecimal naming what."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise NotDecimal(f"{what} must be a decimal integer, got {text!r:.60}")
    if len(digits) > MAX_DIGITS:
        raise NotDecimal(f"{what} has more than {MAX_DIGITS} digits")
    return int(text)


# each resource cap's environment variable and its default
CAPS = {"SURFBOUND_ORDER_CAP": 10 ** 6, "SURFBOUND_NODE_BUDGET": 10 ** 9}


def resource_cap(name):
    """The cap set in environment variable name, read by decimal, or CAPS[name]
    when it is unset or empty; NotDecimal unless the cap is positive."""
    value = os.environ.get(name, "")
    try:
        cap = decimal(name, value) if value else CAPS[name]
    except NotDecimal:
        cap = 0
    if cap < 1:
        raise NotDecimal(f"{name} must be a positive decimal integer of at most"
                         f" {MAX_DIGITS} digits, got {value!r:.60}")
    return cap


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


def long_relator(sig):
    """[a_1,b_1]...[a_g,b_g] c_1 ... c_k as a word of (generator, 1 or -1),
    with a_1, b_1, ..., a_g, b_g, c_1, ..., c_k numbered from 0."""
    g = sig.genus
    return tuple([(2 * i + t, e) for i in range(g) for e in (1, -1) for t in (0, 1)]
                 + [(2 * g + j, 1) for j in range(len(sig.periods))])


def relators(sig):
    """The defining relators: each c_j^{m_j} written out, then long_relator(sig)."""
    return [((2 * sig.genus + j, 1),) * m for j, m in enumerate(sig.periods)] + [long_relator(sig)]


def _measure_terms(sig):
    """measure/pi = 2*(2g - 2 + sum_j (1 - 1/m_j)), positive iff a cocompact
    Fuchsian group has the signature, as an unreduced (numerator,
    denominator) pair of integers summed over the common denominator
    lcm(m_j) > 0."""
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


class MeasureClass(NamedTuple):
    """measure/pi as a reduced Fraction, and q = measure/(4*pi) and s/r = 1/q derived from it.

    For a surface kernel of index n the kernel genus is 1 + n*q, so the
    automorphism bound carried by the signature is (genus' - 1)/q = s/r.
    """
    mu_over_pi: "Fraction"

    @property
    def q(self):
        return self.mu_over_pi / 4

    @property
    def s_over_r(self):
        return 4 / self.mu_over_pi


def measure_class(sig):
    # the one place the module builds a Fraction from integers
    from fractions import Fraction

    return MeasureClass(Fraction(*_admissible_terms(sig)))


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
    """One verified table row, s/r as a reduced (numerator, denominator) pair of
    integers; its measure column is checked on load, and measure_class gives it."""
    signature: Signature
    sr_pair: tuple
    arithmeticity_flag: str


_ROW_RE = re.compile(
    r"^(?P<periods>[0-9]+(?:\s+[0-9]+)*)\s*\|\s*(?P<mu>[0-9]+/[0-9]+)\s*\|\s*"
    r"(?P<sr>[0-9]+(?:/[0-9]+)?)\s*\|\s*(?P<flag>verified-by-literature|included-unverified)$"
)


def _cell(where, text):
    """A table cell 'n/d' or 'n' as the integer pair (n, d)."""
    num, _, den = text.partition("/")
    return decimal(f"{where}: a number", num), decimal(f"{where}: a number", den or "1")


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
        try:
            periods = tuple(decimal(f"{where}: a number", t) for t in m.group("periods").split())
            mu_num, mu_den = _cell(where, m.group("mu"))
            sr_num, sr_den = _cell(where, m.group("sr"))
        except NotDecimal as exc:
            # the row's pattern admits only ASCII digits: this is the bound
            raise TableCorrupt(str(exc))
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
        entries.append(SignatureTableEntry(sig, _reduced(4 * den, num), m.group("flag")))
    if not entries:
        raise TableCorrupt(f"{origin}: no rows")
    return tuple(entries)


@cache
def signature_table():
    """The packaged table of arithmetic signatures with measure below pi, as
    a tuple of entries, loaded once per process.

    Every row is re-verified on load (stated measure and s/r against exact
    recomputation); any mismatch raises TableCorrupt naming the row, and so
    does a file that cannot be read or decoded.
    """
    from importlib import resources

    name = "signature_table.txt"
    try:
        text = resources.files("surfbound.data").joinpath(name).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TableCorrupt(f"cannot read {name}: {exc}")
    return _parse_table(text, name)


class BoundConstants(NamedTuple):
    """Invariants of the signature table driving every bound argument: each
    field is a read of the table, s_max and the primes of r_lcm derived."""

    r_lcm: int
    s_ranking: tuple
    table_size: int

    @property
    def s_max(self):
        return self.s_ranking[0]

    @property
    def primes(self):
        return tuple(_factor(self.r_lcm))


def bound_constants():
    table = signature_table()
    ranking = sorted((s for s, r in (e.sr_pair for e in table) if r == 1), reverse=True)
    return BoundConstants(lcm(*(e.sr_pair[1] for e in table)), tuple(ranking), len(table))


def render_pi(frac):
    """Exact display of a rational multiple of pi: 1/21 -> 'pi/21', 14/15 -> '14pi/15'."""
    n, d = frac.numerator, frac.denominator
    num = "pi" if n == 1 else f"{n}pi"
    return num if d == 1 else f"{num}/{d}"


def parse_signature(text):
    """Parse CLI signature syntax, numbers by decimal: '2,3,7' is genus 0; 'g1p2' is (1; 2)."""
    text = text.strip()
    m = re.fullmatch(r"g([^p]*)(?:p(.*))?", text)
    try:
        genus, body = (decimal("genus", m.group(1)), m.group(2)) if m else (0, text)
        periods = tuple(decimal("period", t) for t in body.split(",")) if body else ()
        if genus or periods:
            return Signature(genus, periods)
    except NotDecimal:
        pass
    raise ValueError("expected periods like 2,3,7, or a genus like g1p2,2 or g2")
