"""Real-root machinery: Sturm sequences, isolation, exact signs at algebraic roots.

Everything is exact.  Root counts use the Sturm chain of the squarefree part,
so repeated roots are counted once; the half-open convention is (lo, hi].
Chains are kept as primitive integer coefficient lists (every member is a
positive rational multiple of the canonical one, so all sign variations
agree), and infinite endpoints read their signs off the leading coefficients.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalSearchError, ZeroPolynomialError
from .polynomials import (
    NEG_INF,
    Polynomial,
    _int_prem,
    _primitive_ints,
    _strip_content,
    poly_gcd,
    squarefree_part,
)

POS_INF = float("inf")

# sign_at_roots refines isolating intervals; the cap is unreachable unless the
# termination argument is broken by an implementation bug.
_BISECTION_CAP = 10_000


class SignPattern(enum.Enum):
    """Summary of the signs of one polynomial at all real roots of another."""

    NO_ROOTS = "NoRoots"
    ALL_POSITIVE = "AllPositive"
    ALL_NEGATIVE = "AllNegative"
    MIXED = "Mixed"
    HAS_ZERO = "HasZero"

    def is_definite(self) -> bool:
        """True when the pattern satisfies a strict one-sign hypothesis."""
        return self in (SignPattern.NO_ROOTS, SignPattern.ALL_POSITIVE, SignPattern.ALL_NEGATIVE)


@dataclass(frozen=True)
class IsolatingInterval:
    """Rational interval [lo, hi] holding exactly one real root, or an exact root.

    When ``exact`` is set the root is the rational number ``exact`` and
    lo == hi == exact.  Otherwise lo < hi, the endpoints are not roots, and the
    unique root inside is irrational.
    """

    lo: Fraction
    hi: Fraction
    exact: Optional[Fraction] = None

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def cauchy_bound(p: Polynomial) -> Fraction:
    """1 + max |c_i| / |lc|: every real root lies strictly inside (-B, B)."""
    if p.is_zero:
        raise ZeroPolynomialError("root bound of the zero polynomial")
    lc = abs(p.leading_coefficient)
    rest = [abs(c) for c in p.coeffs[:-1]]
    if not rest:
        return Fraction(1)
    return 1 + max(rest) / lc


class _SturmData:
    """Integer Sturm chain of a squarefree polynomial, with sign-variation queries."""

    def __init__(self, sf: Polynomial):
        self.sf = sf
        a = _primitive_ints(sf)
        b = _strip_content([i * c for i, c in enumerate(a)][1:])
        chain = [a]
        if b:
            chain.append(b)
            while len(chain[-1]) > 1:
                r, sign = _int_prem(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(_strip_content([-sign * v for v in r]))
        self.chain = chain

    def variations_at(self, t: Fraction) -> int:
        prev = 0
        count = 0
        for coeffs in self.chain:
            acc = 0
            for v in reversed(coeffs):
                acc = acc * t + v
            if acc == 0:
                continue
            s = 1 if acc > 0 else -1
            if prev and s != prev:
                count += 1
            prev = s
        return count

    def variations_at_infinity(self, positive: bool) -> int:
        prev = 0
        count = 0
        for coeffs in self.chain:
            s = 1 if coeffs[-1] > 0 else -1
            if not positive and (len(coeffs) - 1) % 2 == 1:
                s = -s
            if prev and s != prev:
                count += 1
            prev = s
        return count

    def count(self, lo, hi) -> int:
        """Distinct real roots in (lo, hi]."""
        if lo != NEG_INF and hi != POS_INF and Fraction(lo) >= Fraction(hi):
            return 0
        va = (self.variations_at_infinity(False) if lo == NEG_INF
              else self.variations_at(Fraction(lo)))
        vb = (self.variations_at_infinity(True) if hi == POS_INF
              else self.variations_at(Fraction(hi)))
        return va - vb


def _sturm_data(p: Polynomial) -> Optional[_SturmData]:
    """Sturm data of the squarefree part; None when p is a nonzero constant."""
    if p.is_zero:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if p.degree == 0:
        return None
    sf = squarefree_part(p)
    if sf.degree == 0:
        return None
    return _SturmData(sf)


def sturm_count(p: Polynomial, lo=NEG_INF, hi=POS_INF) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    With the zeros-skipped variation convention V is right-continuous, so
    V(lo) - V(hi) counts roots in (lo, hi] even when an endpoint is a root.
    """
    data = _sturm_data(p)
    if data is None:
        return 0
    return data.count(lo, hi)


def count_distinct_real_roots(p: Polynomial) -> int:
    return sturm_count(p, NEG_INF, POS_INF)


def _rational_roots(p: Polynomial) -> list[Fraction]:
    """All rational roots of p (each once), via the rational root theorem."""
    if p.is_zero:
        raise ZeroPolynomialError("rational roots of the zero polynomial")
    roots: list[Fraction] = []
    coeffs = list(p.coeffs)
    # Factor out X^k first.
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    from math import lcm

    scale = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * scale) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    q = Polynomial.from_coeffs(coeffs)
    for u in _divisors(a0):
        for v in _divisors(an):
            cand = Fraction(u, v)
            for root in (cand, -cand):
                if root not in roots and q.evaluate(root) == 0:
                    roots.append(root)
    roots.sort()
    return roots


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def isolate_real_roots(p: Polynomial) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for the distinct real roots of p, in order.

    Rational roots come back as exact points; the remaining intervals have
    non-root rational endpoints and contain a single (irrational) root.  The
    initial box comes from the Cauchy root bound.
    """
    data = _sturm_data(p)
    if data is None:
        return []
    sf = data.sf
    rational = set(_rational_roots(sf))
    bound = cauchy_bound(sf)
    var = data.variations_at

    out: list[IsolatingInterval] = []

    def walk(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            root_here = [r for r in rational if a < r <= b]
            if root_here:
                out.append(IsolatingInterval(root_here[0], root_here[0], root_here[0]))
                return
            # The unique root in (a, b] is irrational.  Move a off any root so
            # the closed interval [a, b] contains exactly this root.
            lo, hi = a, b
            while sf.evaluate(lo) == 0:
                m = (lo + hi) / 2
                if var(m) - var(hi) == 1:
                    lo = m
                else:
                    hi = m
            out.append(IsolatingInterval(lo, hi))
            return
        m = (a + b) / 2
        vm = var(m)
        walk(a, m, va, vm)
        walk(m, b, vm, vb)

    walk(-bound, bound, var(-bound), var(bound))
    out.sort(key=lambda iv: iv.lo)

    # Make the intervals pairwise disjoint as sets (they may share endpoints).
    def tighten(iv: IsolatingInterval) -> IsolatingInterval:
        m = iv.midpoint()
        if var(iv.lo) - var(m) == 1:
            return IsolatingInterval(iv.lo, m)
        return IsolatingInterval(m, iv.hi)

    for i in range(1, len(out)):
        while out[i - 1].hi >= out[i].lo:
            if not out[i - 1].is_exact:
                out[i - 1] = tighten(out[i - 1])
            elif not out[i].is_exact:
                out[i] = tighten(out[i])
            else:  # distinct exact rationals can never collide
                break
    return out


def _sign_at_interval_root(q: Polynomial, data: _SturmData, q_data: Optional[_SturmData],
                           iv: IsolatingInterval) -> int:
    """Exact sign of q at the unique root of data.sf inside iv; 0 when q vanishes there."""
    if iv.is_exact:
        v = q.evaluate(iv.exact)
        return 0 if v == 0 else (1 if v > 0 else -1)
    g = poly_gcd(data.sf, q)
    if g.degree >= 1 and sturm_count(g, iv.lo, iv.hi) >= 1:
        # The only root of data.sf in (lo, hi] is ours, and it is a root of q too.
        return 0
    var = data.variations_at
    lo, hi = iv.lo, iv.hi
    for _ in range(_BISECTION_CAP):
        if q.evaluate(lo) != 0 and q.evaluate(hi) != 0 and (
            q_data is None or q_data.count(lo, hi) == 0
        ):
            v = q.evaluate(lo)
            return 1 if v > 0 else -1
        m = (lo + hi) / 2
        if var(lo) - var(m) == 1:
            hi = m
        else:
            lo = m
    raise InternalSearchError("sign refinement did not converge; this is a bug")


def sign_at_roots(q: Polynomial, p: Polynomial) -> SignPattern:
    """Signs of q at every real root of p, summarized as a SignPattern.

    A common root of p and q yields HAS_ZERO, which dominates.  Signs at
    irrational roots are decided by shrinking the isolating interval until q
    has constant sign on it; termination is guaranteed because gcd(p, q) has
    no root there.
    """
    if p.is_zero:
        raise ZeroPolynomialError("sign_at_roots requires a nonzero second argument")
    roots = isolate_real_roots(p)
    if not roots:
        return SignPattern.NO_ROOTS
    if q.is_zero:
        return SignPattern.HAS_ZERO
    data = _sturm_data(p)
    q_data = _sturm_data(q) if q.degree >= 1 else None
    signs = set()
    for iv in roots:
        s = _sign_at_interval_root(q, data, q_data, iv)
        if s == 0:
            return SignPattern.HAS_ZERO
        signs.add(s)
    if signs == {1}:
        return SignPattern.ALL_POSITIVE
    if signs == {-1}:
        return SignPattern.ALL_NEGATIVE
    return SignPattern.MIXED


_gamma_cache: dict[tuple, bool] = {}


def is_gamma(p: Polynomial) -> bool:
    """True iff p is nonzero and has no real roots (the multiplicative set Gamma).

    Nonzero constants qualify as the empty product.  A true result implies the
    degree is even, which is asserted: an odd-degree real polynomial always has
    a real root.
    """
    if p.is_zero:
        return False
    deg = p.degree
    if deg == 0:
        return True
    if deg % 2 == 1:
        return False
    cached = _gamma_cache.get(p.coeffs)
    if cached is None:
        if deg == 2:
            a, b, c = p.coeffs[2], p.coeffs[1], p.coeffs[0]
            cached = b * b - 4 * a * c < 0
        else:
            cached = count_distinct_real_roots(p) == 0
        _gamma_cache[p.coeffs] = cached
    if cached:
        assert deg % 2 == 0
    return cached


def is_gamma_plus(p: Polynomial) -> bool:
    """True iff p is everywhere positive: no real roots and p(0) > 0."""
    return is_gamma(p) and p.evaluate(0) > 0
