"""Real-root machinery: Sturm sequences, isolation, exact signs at algebraic roots.

Everything is exact and runs on Python integers.  Root counts use the Sturm
chain of the squarefree part, so repeated roots are counted once; the
half-open convention is (lo, hi].  Chains are kept as primitive integer
coefficient lists (every member is a positive rational multiple of the
canonical one, so all sign variations agree), and infinite endpoints read
their signs off the leading coefficients.  A sign at a rational point n/d is
the sign of the homogeneous integer sum sum(c_i n^i d^(k-i)) (``_sign_at``).

Rational roots are found inside the isolating intervals, not by enumerating
divisors: every rational root of a primitive integer polynomial with leading
coefficient lc has a denominator dividing lc, and two distinct fractions with
denominators at most |lc| are at least 1/lc^2 apart.  Bisecting a single-root
interval below that width leaves one candidate, the fraction with denominator
at most |lc| nearest the midpoint, which is then tested exactly.  The number
of bisections is logarithmic in the root bound times lc^2, so the cost is
polynomial in the bit size of the coefficients.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalSearchError, ZeroPolynomialError
from .polynomials import (
    NEG_INF,
    Polynomial,
    _horner,
    _pdiv,
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
    ints = p.ints
    return 1 + Fraction(max(map(abs, ints[:-1]), default=0), abs(ints[-1]))


def _sign_at(coeffs: Sequence[int], t: Fraction) -> int:
    """Exact sign of the integer polynomial sum(c_i X^i) at the rational t.

    With t = n/d in lowest terms (d > 0) this is the sign of the homogeneous
    Horner sum sum(c_i n^i d^(k-i)) = d^k * p(t), computed on integers only.
    """
    acc = _horner(coeffs, t.numerator, t.denominator)
    return (acc > 0) - (acc < 0)


class _SturmData:
    """Integer Sturm chain of a squarefree polynomial, with sign-variation queries."""

    def __init__(self, sf: Polynomial):
        self.sf = sf
        a = _strip_content(list(sf.ints))
        b = _strip_content([i * c for i, c in enumerate(a)][1:])
        chain = [a]
        if b:
            chain.append(b)
            while len(chain[-1]) > 1:
                # s*a = q*b + r: -rem(a, b) is a positive multiple of -sign(s)*r.
                _, r, s = _pdiv(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(_strip_content([-v for v in r] if s > 0 else r))
        self.chain = chain

    def variations_at(self, t: Fraction) -> int:
        prev = 0
        count = 0
        for coeffs in self.chain:
            s = _sign_at(coeffs, t)
            if s == 0:
                continue
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


def isolate_real_roots(p: Polynomial) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for the distinct real roots of p, in order.

    Rational roots come back as exact points; the remaining intervals have
    non-root rational endpoints and contain a single (irrational) root.  The
    initial box comes from the Cauchy root bound.
    """
    data = _sturm_data(p)
    if data is None:
        return []
    return _isolate(data)


def _isolate(data: _SturmData) -> list[IsolatingInterval]:
    """isolate_real_roots on the Sturm data of a squarefree polynomial."""
    ints = data.chain[0]
    lc = abs(ints[-1])
    # Distinct fractions with denominators <= lc are at least 1/lc^2 apart.
    separation = Fraction(1, lc * lc)
    bound = cauchy_bound(data.sf)
    var = data.variations_at

    def rational_root(a: Fraction, b: Fraction, va: int) -> Optional[Fraction]:
        """The single root in (a, b] if it is rational, else None."""
        if _sign_at(ints, b) == 0:
            return b
        lo, hi, vlo = a, b, va
        while hi - lo >= separation:
            m = (lo + hi) / 2
            vm = var(m)
            if vlo - vm == 1:
                hi = m
            else:
                lo, vlo = m, vm
        # A rational root has denominator dividing lc and is the only such
        # fraction in (lo, hi], hence the one nearest the midpoint.
        cand = ((lo + hi) / 2).limit_denominator(lc)
        if lo < cand <= hi and _sign_at(ints, cand) == 0:
            return cand
        return None

    out: list[IsolatingInterval] = []

    def walk(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            root = rational_root(a, b, va)
            if root is not None:
                out.append(IsolatingInterval(root, root, root))
                return
            # The unique root in (a, b] is irrational.  Move a off any root so
            # the closed interval [a, b] contains exactly this root.
            lo, hi = a, b
            while _sign_at(ints, lo) == 0:
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


def _sign_near_root(q_ints: list[int], q_data: Optional[_SturmData], data: _SturmData,
                    iv: IsolatingInterval) -> int:
    """Sign of q at the irrational root of data.sf in iv, where q does not vanish.

    The interval is halved until q has no root in it and is nonzero at both
    ends; q then has one sign on the whole interval.
    """
    var = data.variations_at
    lo, hi = iv.lo, iv.hi
    vlo = var(lo)
    for _ in range(_BISECTION_CAP):
        s = _sign_at(q_ints, lo)
        if s != 0 and _sign_at(q_ints, hi) != 0 and (
            q_data is None or q_data.count(lo, hi) == 0
        ):
            return s
        m = (lo + hi) / 2
        vm = var(m)
        if vlo - vm == 1:
            hi = m
        else:
            lo, vlo = m, vm
    raise InternalSearchError("sign refinement did not converge; this is a bug")


def sign_at_roots(q: Polynomial, p: Polynomial) -> SignPattern:
    """Signs of q at every real root of p, summarized as a SignPattern.

    A common root of p and q yields HAS_ZERO, which dominates: it is detected
    exactly at rational roots and, for the others, by a real root of
    gcd(p, q).  Signs at irrational roots are decided by shrinking the
    isolating interval until q has constant sign on it; termination is
    guaranteed because q does not vanish at that root.
    """
    if p.is_zero:
        raise ZeroPolynomialError("sign_at_roots requires a nonzero second argument")
    data = _sturm_data(p)
    roots = [] if data is None else _isolate(data)
    if not roots:
        return SignPattern.NO_ROOTS
    if q.is_zero:
        return SignPattern.HAS_ZERO
    q_ints = q.ints
    q_data = None
    if any(not iv.is_exact for iv in roots):
        # Every real root of the gcd is a root of p, so HAS_ZERO iff it has one.
        g = poly_gcd(data.sf, q)
        if g.degree >= 1 and sturm_count(g) >= 1:
            return SignPattern.HAS_ZERO
        q_data = _sturm_data(q)
    signs = set()
    for iv in roots:
        if iv.is_exact:
            s = _sign_at(q_ints, iv.exact)
        else:
            s = _sign_near_root(q_ints, q_data, data, iv)
        if s == 0:
            return SignPattern.HAS_ZERO
        signs.add(s)
    if signs == {1}:
        return SignPattern.ALL_POSITIVE
    if signs == {-1}:
        return SignPattern.ALL_NEGATIVE
    return SignPattern.MIXED


_gamma_cache: dict[Polynomial, bool] = {}


def is_gamma(p: Polynomial) -> bool:
    """True iff p is nonzero and has no real roots (the multiplicative set Gamma).

    Nonzero constants qualify as the empty product.  A true result implies an
    even degree: an odd-degree real polynomial always has a real root.
    """
    if p.is_zero:
        return False
    deg = p.degree
    if deg == 0:
        return True
    if deg % 2 == 1:
        return False
    cached = _gamma_cache.get(p)
    if cached is None:
        if deg == 2:
            # The discriminant's sign is unchanged by the positive scaling denom^2.
            c, b, a = p.ints
            cached = b * b - 4 * a * c < 0
        else:
            cached = count_distinct_real_roots(p) == 0
        _gamma_cache[p] = cached
    return cached


def is_gamma_plus(p: Polynomial) -> bool:
    """True iff p is everywhere positive: no real roots and p(0) > 0."""
    return is_gamma(p) and p.evaluate(0) > 0
