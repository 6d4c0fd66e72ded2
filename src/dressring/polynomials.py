"""Exact univariate polynomials and rational functions over arbitrary-precision rationals.

Coefficients are ``fractions.Fraction`` throughout; nothing here ever rounds.
The degree of the zero polynomial is the sentinel ``NEG_INF`` (never -1), so
degree bookkeeping like ``deg(a) + deg(b)`` stays correct in every branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd, lcm
from typing import Iterable, Union

from .errors import ZeroDenominatorError, ZeroPolynomialError

Rational = Fraction

NEG_INF = float("-inf")

Degree = Union[int, float]  # an int, or NEG_INF for the zero polynomial

_COEF_TYPES = (int, Fraction)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; ``coeffs[i]`` is the coefficient of X^i.

    The coefficient sequence never has a trailing zero, so the zero polynomial
    is exactly the empty tuple.  Instances are immutable and hashable.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "Polynomial":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial.from_coeffs([c])

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((Fraction(1),))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((Fraction(0), Fraction(1)))

    @staticmethod
    def monomial(k: int, c=1) -> "Polynomial":
        return Polynomial.from_coeffs([0] * k + [c])

    @property
    def degree(self) -> Degree:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return Polynomial(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, _COEF_TYPES):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(())
        # Integer convolution over the common coefficient denominators.
        da = 1
        for c in a:
            da = lcm(da, c.denominator)
        db = 1
        for c in b:
            db = lcm(db, c.denominator)
        ia = [c.numerator * (da // c.denominator) for c in a]
        ib = [c.numerator * (db // c.denominator) for c in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(ia):
            if ai:
                for j, bj in enumerate(ib):
                    out[i + j] += ai * bj
        while out and out[-1] == 0:
            out.pop()
        scale = da * db
        return Polynomial(tuple(Fraction(v, scale) for v in out))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple(c * a for a in self.coeffs))

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, t) -> Fraction:
        """Horner evaluation at a rational point."""
        t = _as_fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return Polynomial(tuple(c / lc for c in self.coeffs))

    def __str__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, _COEF_TYPES):
        return Polynomial.from_coeffs([value])
    return NotImplemented


def divrem(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Euclidean division: returns (q, r) with a = q*b + r and deg r < deg b."""
    if b.is_zero:
        raise ZeroPolynomialError("division by the zero polynomial")
    if a.is_zero or len(a.coeffs) < len(b.coeffs):
        return Polynomial(()), a
    rem = list(a.coeffs)
    div = b.coeffs
    dlen = len(div)
    inv_lc = 1 / div[-1]
    quot = [Fraction(0)] * (len(rem) - dlen + 1)
    for i in range(len(rem) - dlen, -1, -1):
        c = rem[i + dlen - 1] * inv_lc
        if c:
            quot[i] = c
            for j in range(dlen):
                rem[i + j] -= c * div[j]
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return Polynomial(tuple(quot)), Polynomial(tuple(rem))


def _strip_content(c: list[int]) -> list[int]:
    """Divide an integer coefficient list by the gcd of its entries."""
    g = igcd(*c)
    if g > 1:
        return [v // g for v in c]
    return c


def _primitive_ints(p: Polynomial) -> list[int]:
    """Integer coefficient list of a positive rational multiple of p, content 1."""
    scale = 1
    for c in p.coeffs:
        scale = lcm(scale, c.denominator)
    return _strip_content([c.numerator * (scale // c.denominator) for c in p.coeffs])


def _int_prem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Integer pseudo-remainder and the parity sign of the implied scaling.

    Returns (r, s) with rem(a, b) a *positive* multiple of s * r, where s
    accounts for the rounds of multiplication by the (possibly negative)
    leading coefficient of b.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    rounds = 0
    while len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        rounds += 1
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    sign = -1 if (lb < 0 and rounds % 2 == 1) else 1
    return r, sign


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[X]; gcd(0, 0) = 0.

    Computed on primitive integer coefficient lists with pseudo-remainders and
    per-step content stripping; positive scalings never change the gcd.
    """
    if a.is_zero or b.is_zero:
        return (a + b).monic()
    if a.coeffs == b.coeffs:
        return a.monic()
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return Polynomial.one()
    ca = _primitive_ints(a)
    cb = _primitive_ints(b)
    if len(ca) < len(cb):
        ca, cb = cb, ca
    while True:
        r, _ = _int_prem(ca, cb)
        if not r:
            break
        ca, cb = cb, _strip_content(r)
        if len(cb) == 1:
            return Polynomial.one()
    lc = Fraction(cb[-1])
    return Polynomial(tuple(Fraction(v) / lc for v in cb))


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial(())
    if a.coeffs == b.coeffs or len(b.coeffs) == 1:
        return a.monic()
    if len(a.coeffs) == 1:
        return b.monic()
    g = poly_gcd(a, b)
    if g.degree == 0:
        return (a * b).monic()
    q, r = divrem(a * b, g)
    assert r.is_zero
    return q.monic()


def extended_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g the monic gcd."""
    r0, r1 = a, b
    u0, u1 = Polynomial.one(), Polynomial.zero()
    v0, v1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero:
        q, r = divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lc = r0.leading_coefficient
    return r0.monic(), u0.scale(1 / lc), v0.scale(1 / lc)


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic: same distinct roots as p, each simple."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    q, r = divrem(p, g)
    assert r.is_zero
    return q.monic()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: monic pairwise-coprime squarefree factors with multiplicities.

    Returns [(s1, 1), (s2, 2), ...] so that p = lc * prod(s_i ** i), with the
    degree-zero factors dropped.
    """
    if p.is_zero:
        raise ZeroPolynomialError("squarefree decomposition of the zero polynomial")
    p = p.monic()
    out: list[tuple[Polynomial, int]] = []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    if a.degree == 0:
        return [(p, 1)] if p.degree >= 1 else []
    b, _ = divrem(p, a)
    c, _ = divrem(dp, a)
    i = 1
    d = c - b.derivative()
    while not b.is_zero and b.degree >= 1:
        s = poly_gcd(b, d)
        if s.degree >= 1:
            out.append((s, i))
        b, _ = divrem(b, s)
        c, _ = divrem(d, s)
        d = c - b.derivative()
        i += 1
    return out


def affine_compose(p: Polynomial, a, b) -> Polynomial:
    """p(a*X + b), computed by Horner in the polynomial a*X + b."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0:
        raise ValueError("affine substitution requires a != 0")
    lin = Polynomial.from_coeffs([b, a])
    acc = Polynomial.zero()
    for c in reversed(p.coeffs):
        acc = acc * lin + Polynomial.constant(c)
    return acc


@dataclass(frozen=True)
class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator.

    Use :meth:`make` (or the arithmetic operators) rather than the raw
    constructor; ``make`` cancels the gcd and normalizes the denominator, and
    normalizing an already-normalized value is the identity.
    """

    num: Polynomial
    den: Polynomial

    @staticmethod
    def make(num: Polynomial, den: Polynomial) -> "RationalFunction":
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator")
        if num.is_zero:
            return RationalFunction(Polynomial.zero(), Polynomial.one())
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num, _ = divrem(num, g)
            den, _ = divrem(den, g)
        lc = den.leading_coefficient
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return RationalFunction(num, den)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.one())

    @staticmethod
    def from_rational(c) -> "RationalFunction":
        c = _as_fraction(c)
        return RationalFunction(Polynomial.from_coeffs([c]), Polynomial.one())

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), Polynomial.one())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one(), Polynomial.one())

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x(), Polynomial.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def degree(self) -> Degree:
        """deg(num) - deg(den); NEG_INF for the zero function."""
        if self.num.is_zero:
            return NEG_INF
        return self.num.degree - self.den.degree

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return -(self - other)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return RationalFunction.make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return RationalFunction.one() / self ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def evaluate(self, t) -> Fraction:
        t = _as_fraction(t)
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDenominatorError(f"pole at {t}")
        return self.num.evaluate(t) / d

    def __str__(self) -> str:
        from .parsing import format_rational_function

        return format_rational_function(self)

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _coerce_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction.from_polynomial(value)
    if isinstance(value, _COEF_TYPES):
        return RationalFunction.from_rational(value)
    return NotImplemented


def affine_substitute(r: RationalFunction, a, b) -> RationalFunction:
    """X -> a*X + b on a rational function; a ring automorphism of Q(X) for a != 0."""
    return RationalFunction.make(affine_compose(r.num, a, b), affine_compose(r.den, a, b))
