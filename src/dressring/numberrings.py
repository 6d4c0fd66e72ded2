"""Number-theoretic instances: the localization Z_S and truncated Laurent membership.

Z_S inverts exactly the primes congruent to 1 mod 4, the multiplicative set
generated by the primes that divide a sum of two coprime squares.  Over a
Henselian base the corresponding membership tests reduce to the order of a
series: the valuation ring itself over a real-closed residue field, and
Z_S + (positive-order part) over a rational residue field.  Root lifting is
never re-executed; only these conclusions are used.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CertificateError,
    IndeterminateSeriesError,
    ShapeViolation,
    ZeroPolynomialError,
)

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


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1: trial division, then Pollard rho."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 41
    while p * p <= n and p < 100_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    rng = random.Random(0xD1355)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.extend([d, m // d])
    return out


def _is_s_prime(p: int) -> bool:
    return p % 4 == 1


def zs_member(q: Fraction) -> bool:
    """True iff q lies in Z_S: every prime factor of the reduced denominator is 1 mod 4."""
    q = Fraction(q)
    den = q.denominator
    if den == 1:
        return True
    # A product of primes that are 1 mod 4 is 1 mod 4, so an even denominator
    # or one that is 3 mod 4 has a prime factor outside S.
    if den % 4 != 1:
        return False
    return all(_is_s_prime(p) for p in factorize(den))


def _strip_s_part(n: int) -> int:
    """Remove the prime factors congruent to 1 mod 4 (the S-unit content)."""
    if n == 0:
        return 0
    out = 1
    for p, e in factorize(abs(n)).items():
        if not _is_s_prime(p):
            out *= p**e
    return out


def zs_gcd(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Generator of the Z_S-ideal (a, b) with an exact Bezout certificate.

    Returns (g, u, v) with u*a + v*b = g, u and v in Z_S, and g the positive
    generator carrying only primes outside S.  The computation clears
    denominators, takes the integer gcd, and strips the S-unit content; the
    integer Bezout pair is rescaled by the resulting S-unit.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise ZeroPolynomialError("zs_gcd needs at least one nonzero input")
    scale = lcm(a.denominator, b.denominator)
    ai, bi = int(a * scale), int(b * scale)
    d, x, y = _int_extended_gcd(ai, bi)
    g = Fraction(_strip_s_part(d), _strip_s_part(scale))
    # w = g / (d / scale) is an S-unit, so u = x*w and v = y*w stay in Z_S.
    w = g * scale / d
    u, v = x * w, y * w
    if u * a + v * b != g:
        raise CertificateError(f"zs_gcd({a}, {b}): u*a + v*b != g for g={g}, u={u}, v={v}")
    if not (zs_member(u) and zs_member(v)):
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


@dataclass(frozen=True)
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
    precision: int

    @staticmethod
    def make(base: SeriesBase, order: int, coeffs, precision: int | None = None) -> "TruncLaurent":
        cs = [Fraction(c) for c in coeffs]
        if precision is None:
            precision = order + len(cs)
        if precision - order != len(cs):
            raise ShapeViolation("precision must equal order + number of coefficients")
        if not cs:
            raise ShapeViolation("use TruncLaurent.zero for the zero series")
        while cs and cs[0] == 0 and any(c != 0 for c in cs):
            cs.pop(0)
            order += 1
        if precision <= order:
            raise ShapeViolation("precision must exceed the order")
        return TruncLaurent(base, order, tuple(cs), precision)

    @staticmethod
    def zero(base: SeriesBase) -> "TruncLaurent":
        return TruncLaurent(base, 0, (), 0)

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
        return TruncLaurent._renormalize(self.base, lo, cs, prec)

    def __neg__(self) -> "TruncLaurent":
        if self.is_declared_zero:
            return self
        return TruncLaurent(self.base, self.order, tuple(-c for c in self.coeffs), self.precision)

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
        return TruncLaurent._renormalize(self.base, lo, cs, prec)

    @staticmethod
    def _renormalize(base: SeriesBase, order: int, cs: list[Fraction], precision: int) -> "TruncLaurent":
        while cs and cs[0] == 0 and any(c != 0 for c in cs):
            cs.pop(0)
            order += 1
        return TruncLaurent(base, order, tuple(cs), precision)

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
