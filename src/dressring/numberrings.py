"""Number-theoretic instances: the localization Z_S and truncated Laurent membership.

Z_S inverts exactly the primes congruent to 1 mod 4, the multiplicative set
generated by the odd primes that divide a sum of two coprime squares.  The
paper's minimal Dress ring D_Q of Q also inverts 2 = 1^2 + 1^2, as
1/2 = 1/(1 + 1^2), so Z_S is a proper subring of D_Q.  Over a
Henselian base the corresponding membership tests reduce to the order of a
series: the valuation ring itself over a real-closed residue field, and
Z_S + (positive-order part) over a rational residue field.  Root lifting is
never re-executed; only these conclusions are used.
"""

from __future__ import annotations

import enum
import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CertificateError,
    IndeterminateSeriesError,
    ResourceLimitError,
    ShapeViolation,
    ZeroPolynomialError,
)
from .parsing import format_fraction
from .polynomials import _as_fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as witnesses.

    Deterministic for n < 3317044064679887385961981 (about 3.3e24), the least
    strong pseudoprime to all of these bases (Sorenson and Webster, 2015).
    Above that bound a True answer only means n is a strong probable prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
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


# Trial division stops at this bound.  On the zs-* ops of the cli benchmark
# (denominators with 6-8 digit prime factors) bounds of 100000, 10000, 1000
# and 200 spent 2.2, 1.0, 0.6 and 0.6 s factoring 196 ops (Python 3.11, Xeon).
_TRIAL_BOUND = 1000
# Pollard p-1 bounds: stage 1 raises 2 to every prime power up to _PM1_B1,
# stage 2 to one more prime up to _PM1_B2.  The 676 integers that the zs-* ops
# of the cli benchmark factor (seeds 5 and 11) took 0.72 s with these bounds,
# 0.80 s with 2000 and 20,000, 1.40 s with 1000 and 100,000, and 1.05 s with
# rho alone (Python 3.11, Xeon).
_PM1_B1 = 1000
_PM1_B2 = 10_000
# Steps of x -> x^2 + c between two gcds of Brent's cycle search.
_RHO_BATCH = 128
# Rho steps allowed per factorize call.  The zs-* ops of the cli benchmark
# (seeds 1-60, 20,613 calls) need at most 50,558 after the p-1 stage, which
# leaves 6,702 of the calls to rho; two 16-digit prime factors need about
# 10^8.  The budget is spent in about 1 s on a 32-digit n (Python 3.11, Xeon).
_RHO_STEP_BUDGET = 2_000_000


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """(d, steps): a proper divisor d of the odd composite n, or d = 0 once more
    than ``budget`` steps are spent, with the steps used.

    Brent's cycle search (R. P. Brent, BIT 20, 1980) on x -> x^2 + c mod n: it
    multiplies x - y mod n over a batch of steps and takes one gcd per batch;
    when a batch gcd is n it steps through the batch again one gcd at a time.
    The product is reduced once per four steps; its sign does not change a gcd.
    """
    steps = 0
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(2, n)
        r = q = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                if steps > budget:
                    return 0, steps
                ys = y
                m = min(_RHO_BATCH, r - k)
                for _ in range(m >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(m & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
                steps += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps


@functools.cache
def _pm1_tables() -> tuple[int, int, tuple[int, ...]]:
    """(E, q0, halves): E = lcm(1, ..., _PM1_B1), the product of the largest
    prime powers <= _PM1_B1, q0 the least prime above _PM1_B1, and the halved gaps between consecutive
    primes in (_PM1_B1, _PM1_B2].  Built on first use, not at import."""
    sieve = bytearray([1]) * (_PM1_B2 + 1)
    for i in range(2, int(_PM1_B2**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    big = [p for p in range(_PM1_B1 + 1, _PM1_B2 + 1) if sieve[p]]
    return lcm(*range(1, _PM1_B1 + 1)), big[0], tuple((b - a) // 2 for a, b in zip(big, big[1:]))


def _pollard_pm1(n: int) -> int:
    """A proper divisor of the odd composite n found by Pollard's p-1, or 0.

    Stage 1 (J. M. Pollard, Proc. Cambridge Philos. Soc. 76, 1974) takes
    g = gcd(H - 1, n) with H = 2^E mod n, which splits n when the order of 2
    modulo some but not every prime power of n divides E.  Only if g = 1,
    stage 2 (P. L. Montgomery, Math. Comp. 48, 1987) steps H^q over the primes
    q in (_PM1_B1, _PM1_B2] by a table of H^gap and takes one gcd of the
    product of the H^q - 1: it also splits n when that order is such a q
    times a divisor of E.  Both stages cost the same for every n of one size.
    """
    exponent, q0, halves = _pm1_tables()
    h = pow(2, exponent, n)
    g = gcd(h - 1, n)
    if g == 1:
        step = [1, h * h % n]
        for _ in range(max(halves) - 1):
            step.append(step[-1] * step[1] % n)
        hq = pow(h, q0, n)
        acc = hq - 1
        for half in halves:
            hq = hq * step[half] % n
            acc = acc * (hq - 1) % n
        g = gcd(acc, n)
    return g if 1 < g < n else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, keys in increasing order.

    Trial division by 2 and the odd numbers below ``_TRIAL_BOUND`` (1000); each
    cofactor left that Miller-Rabin does not call prime goes first to Pollard's
    p-1 with ``_PM1_B1`` = 1000 and ``_PM1_B2`` = 10,000, a stage of fixed cost
    (about 0.8 ms on a 16-digit cofactor), and, if that finds no proper
    divisor, to Brent's variant of Pollard rho with a fixed seed.  The rho
    steps of one call are capped at ``_RHO_STEP_BUDGET`` (2,000,000); past it
    ResourceLimitError names n and the budget.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    original = n
    out: dict[int, int] = {}
    p = 2
    while p * p <= n and p < _TRIAL_BOUND:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2 if p > 2 else 1
    rng = random.Random(0xD1355)
    budget = _RHO_STEP_BUDGET
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_pm1(m)
        if not d:
            d, steps = _brent_rho(m, rng, budget)
            if not d:
                raise ResourceLimitError(
                    f"factorize({format_fraction(original)}): Pollard rho exceeded its budget of "
                    f"{_RHO_STEP_BUDGET} steps")
            budget -= steps
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


def _is_s_prime(p: int) -> bool:
    return p % 4 == 1


def zs_member(q: Fraction) -> bool:
    """True iff q lies in Z_S: every prime factor of the reduced denominator is 1 mod 4."""
    q = _as_fraction(q)
    den = q.denominator
    if den == 1:
        return True
    # A product of primes that are 1 mod 4 is 1 mod 4, so an even denominator
    # or one that is 3 mod 4 has a prime factor outside S.
    if den % 4 != 1:
        return False
    return _split_s(den)[1] == 1


def _split_s(n: int) -> tuple[int, int]:
    """(S-part, rest) of n >= 1: the product of its prime powers that are 1 mod 4, and n over it."""
    s_part = rest = 1
    for p, e in factorize(n).items():
        if _is_s_prime(p):
            s_part *= p**e
        else:
            rest *= p**e
    return s_part, rest


def zs_gcd(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Generator of the Z_S-ideal (a, b) with an exact Bezout certificate.

    Returns (g, u, v) with u*a + v*b = g, u and v in Z_S, and g the positive
    generator carrying only primes outside S.  The computation clears
    denominators, takes the integer gcd d, and strips the S-unit content; the
    integer Bezout pair is rescaled by the resulting S-unit.  a's denominator,
    the part of b's denominator not shared with it, and d are factored once
    each, so a shared denominator is factored once.
    """
    a, b = _as_fraction(a), _as_fraction(b)
    if a == 0 and b == 0:
        raise ZeroPolynomialError("zs_gcd needs at least one nonzero input")
    # scale = a.denominator * b_only, and the non-S part is multiplicative.
    b_only = b.denominator // gcd(a.denominator, b.denominator)
    scale = a.denominator * b_only
    ai, bi = int(a * scale), int(b * scale)
    d, x, y = _int_extended_gcd(ai, bi)
    s_d, rest_d = _split_s(d)
    g = Fraction(rest_d, _split_s(a.denominator)[1] * _split_s(b_only)[1])
    # w = g / (d / scale) = S(scale) / S(d) is an S-unit, so u = x*w and
    # v = y*w lie in Z_S: both denominators divide S(d).
    w = g * scale / d
    u, v = x * w, y * w
    if u * a + v * b != g:
        a, b, g, u, v = map(format_fraction, (a, b, g, u, v))
        raise CertificateError(f"zs_gcd({a}, {b}): u*a + v*b != g for g={g}, u={u}, v={v}")
    if s_d % u.denominator or s_d % v.denominator:
        a, b, u, v = map(format_fraction, (a, b, u, v))
        raise CertificateError(f"zs_gcd({a}, {b}): Bezout coefficients u={u}, v={v} not in Z_S")
    return g, u, v


def _int_extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with d = gcd(a, b) > 0 and x*a + y*b = d."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class SeriesBase(enum.Enum):
    """Residue behaviour of the Henselian base field."""

    REAL_HENSELIAN = "real"
    RATIONAL_HENSELIAN = "rational"


@dataclass(frozen=True, slots=True)
class TruncLaurent:
    """Truncated Laurent series: coefficients for exponents order <= k < precision.

    Three states: the declared-zero series (empty coefficients), a series that
    is zero to its precision but not declared zero (all stored coefficients
    vanish; membership is indeterminate), and a normal series whose leading
    stored coefficient is nonzero.  Operations never fabricate coefficients
    beyond the tracked precision.
    """

    base: SeriesBase
    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(base: SeriesBase, order: int, coeffs) -> "TruncLaurent":
        order = operator.index(order)  # TypeError for 0.5, Fraction(1, 2) or "1"
        cs = [_as_fraction(c) for c in coeffs]
        if not cs:
            raise ShapeViolation("use TruncLaurent.zero for the zero series")
        return TruncLaurent._renormalize(base, order, cs)

    @staticmethod
    def zero(base: SeriesBase) -> "TruncLaurent":
        return TruncLaurent(base, 0, ())

    @property
    def precision(self) -> int:
        """The first exponent whose coefficient is unknown."""
        return self.order + len(self.coeffs)

    @property
    def is_declared_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_zero_to_precision(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if self.is_declared_zero:
            return Fraction(0)
        if k < self.order:
            return Fraction(0)
        if k >= self.precision:
            raise IndeterminateSeriesError(f"coefficient of X^{k} is beyond the precision")
        return self.coeffs[k - self.order]

    def __add__(self, other: "TruncLaurent") -> "TruncLaurent":
        self._check_base(other)
        if self.is_declared_zero:
            return other
        if other.is_declared_zero:
            return self
        prec = min(self.precision, other.precision)
        lo = min(self.order, other.order)
        if prec <= lo:
            raise IndeterminateSeriesError("sum has no known coefficients at this precision")
        cs = [self.coefficient(k) + other.coefficient(k) for k in range(lo, prec)]
        return TruncLaurent._renormalize(self.base, lo, cs)

    def __neg__(self) -> "TruncLaurent":
        if self.is_declared_zero:
            return self
        return TruncLaurent(self.base, self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TruncLaurent") -> "TruncLaurent":
        return self + (-other)

    def __mul__(self, other: "TruncLaurent") -> "TruncLaurent":
        self._check_base(other)
        if self.is_declared_zero or other.is_declared_zero:
            return TruncLaurent.zero(self.base)
        lo = self.order + other.order
        prec = min(self.order + other.precision, other.order + self.precision)
        cs = [Fraction(0)] * (prec - lo)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                k = self.order + i + other.order + j
                if k < prec:
                    cs[k - lo] += ci * cj
        return TruncLaurent._renormalize(self.base, lo, cs)

    @staticmethod
    def _renormalize(base: SeriesBase, order: int, cs: list[Fraction]) -> "TruncLaurent":
        """The series with its leading zeros stripped, unless every coefficient is zero."""
        lead = next((i for i, c in enumerate(cs) if c), 0)
        return TruncLaurent(base, order + lead, tuple(cs[lead:]))

    def _check_base(self, other: "TruncLaurent") -> None:
        if self.base is not other.base:
            raise ShapeViolation("cannot mix series over different base fields")


def laurent_member(s: TruncLaurent) -> bool:
    """Membership of a truncated series in the minimal ring of its base field.

    Real base: membership in the valuation ring, i.e. order >= 0.  Rational
    base: order > 0, or order 0 with a constant coefficient in Z_S.  A series
    that is zero to precision without being declared zero is indeterminate.
    """
    if s.is_declared_zero:
        return True
    if s.is_zero_to_precision:
        raise IndeterminateSeriesError(
            "series is zero to its precision but not declared zero; membership unknown"
        )
    if s.base is SeriesBase.REAL_HENSELIAN:
        return s.order >= 0
    if s.order > 0:
        return True
    if s.order == 0:
        return zs_member(s.coeffs[0])
    return False
