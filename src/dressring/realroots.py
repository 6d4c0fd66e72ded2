"""Real-root machinery: Sturm sequences, isolation, exact signs at algebraic roots.

Everything is exact and runs on Python integers.  Root counts use the Sturm
chain of the squarefree part, so repeated roots are counted once; the
half-open convention is (lo, hi].  Chains are signed remainder sequences of
integer coefficient lists, built by one loop (``_signed_remainders``): every
member is a positive multiple of the canonical one, reduced by subresultant
division (Collins, J. ACM 14, 1967), so all sign variations agree, and the
last one, the gcd, is primitive.  Infinite endpoints read their signs off the
leading coefficients.  A sign at a rational point n/d is the sign of the
homogeneous integer sum sum(c_i n^i d^(k-i)) (``_sign_at``).  The chain of
(p, p') ends in gcd(p, p'), so only a repeated root costs a second chain, on
sf = p / gcd(p, p').  An even-degree p with p(0) lc(p) <= 0 has a real root,
so ``is_gamma`` refutes it from two coefficients, with no chain.

Rational roots are found inside the isolating intervals, not by enumerating
divisors: every rational root of a primitive integer polynomial with leading
coefficient lc has a denominator dividing lc, so it is n/lc for an integer n.
The root r alone in (a, b] is a simple root of sf, so sf has the sign of
sf(b) on (r, b] and the opposite one on (a, r): one binary search over the n
with n/lc in (a, b] either lands on r or proves it irrational, in a number of
steps logarithmic in (b - a) lc.  The chain only counts roots and splits the
box; every halving inside (a, b] goes by the sign of sf at the midpoint.

Signs of q at the roots of p come from one gcd and one Tarski query, not from
isolation.  A real root of g = gcd(p, q) (GCDHEU, see ``_gcd_cofactors``) is
a shared root, so HAS_ZERO needs no chain of p.  Otherwise the variation count
at -inf and +inf of the signed remainder sequence of (sf, sf' q), with sf the
squarefree part of p, is the sum of sign q(x) over the real roots x of p
(Basu-Pollack-Roy, *Algorithms in Real Algebraic Geometry*, Thm. 2.58), and
its parity against the number of roots tells MIXED from a shared root of a
linear p.  Its cost is polynomial in the bit size as well.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .errors import ZeroPolynomialError
from .polynomials import (
    NEG_INF,
    Polynomial,
    _gcd_cofactors,
    _horner,
    _quotient,
    _signed_remainders,
    _strip_content,
)

POS_INF = float("inf")


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


@dataclass(frozen=True, slots=True)
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


def _variations(chain: list[Sequence[int]], t) -> int:
    """Sign variations of a chain at a Fraction t, or at t = -inf or +inf; zeros are skipped."""
    at_infinity = isinstance(t, float)
    prev = count = 0
    for coeffs in chain:
        if at_infinity:  # the sign of the lc, flipped at -inf for an odd degree
            s = 1 if (coeffs[-1] > 0) == (t > 0 or len(coeffs) % 2 == 1) else -1
        else:
            s = _sign_at(coeffs, t)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sturm_chain(a: Sequence[int]) -> list[Sequence[int]]:
    """Signed remainder sequence of (a, a') for a primitive integer list a."""
    return _signed_remainders(a, _strip_content([i * c for i, c in enumerate(a)][1:]))


def _count(chain: list[Sequence[int]], lo, hi) -> int:
    """V(lo) - V(hi) for lo < hi (rational or infinite), else 0: a Sturm chain's roots in (lo, hi]."""
    lo = lo if lo == NEG_INF else Fraction(lo)
    hi = hi if hi == POS_INF else Fraction(hi)
    if lo >= hi:
        return 0
    return _variations(chain, lo) - _variations(chain, hi)


def _sturm_data(p: Polynomial) -> Optional[list[Sequence[int]]]:
    """Sturm chain of the squarefree part; None when p is a nonzero constant."""
    if p.is_zero:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if p.degree == 0:
        return None
    a = _strip_content(p.ints)
    chain = _sturm_chain(a)
    if len(chain[-1]) > 1:  # gcd(p, p') is not constant: rebuild on p / gcd(p, p')
        chain = _sturm_chain(_quotient(a, chain[-1]))
    return chain


def sturm_count(p: Polynomial, lo=NEG_INF, hi=POS_INF) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    With the zeros-skipped variation convention V is right-continuous, so
    V(lo) - V(hi) counts roots in (lo, hi] even when an endpoint is a root.
    """
    chain = _sturm_data(p)
    if chain is None:
        return 0
    return _count(chain, lo, hi)


def count_distinct_real_roots(p: Polynomial) -> int:
    return sturm_count(p, NEG_INF, POS_INF)


def isolate_real_roots(p: Polynomial) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for the distinct real roots of p, in order.

    Rational roots come back as exact points; the remaining intervals have
    non-root rational endpoints and contain a single (irrational) root.  The
    initial box comes from the Cauchy root bound.
    """
    chain = _sturm_data(p)
    if chain is None:
        return []
    # sf is evaluated at many points and the chain at each split: make every member primitive once.
    chain = [_strip_content(c) for c in chain]
    ints = chain[0]
    lc = abs(ints[-1])
    bound = cauchy_bound(Polynomial(tuple(ints)))
    var = partial(_variations, chain)

    def halve(lo: Fraction, hi: Fraction, s_hi: int) -> tuple[Fraction, Fraction]:
        """The half of (lo, hi] that holds its one simple root, with s_hi = sign sf(hi) != 0."""
        m = (lo + hi) / 2
        return (m, hi) if _sign_at(ints, m) == -s_hi else (lo, m)

    def one_root(a: Fraction, b: Fraction) -> IsolatingInterval:
        """The root r alone in (a, b]: simple, so sf has one sign s_b on (r, b], -s_b on (a, r)."""
        s_b = _sign_at(ints, b)
        if s_b == 0:
            return IsolatingInterval(b, b, b)
        # A rational r has a denominator dividing lc, so it is a point n/lc of
        # the grid in (a, b]; sf is -s_b at the grid points left of r, s_b right of it.
        lo, hi = math.floor(a * lc) + 1, math.floor(b * lc)
        while lo <= hi:
            n = (lo + hi) // 2
            t = Fraction(n, lc)
            s = _sign_at(ints, t)
            if s == 0:
                return IsolatingInterval(t, t, t)
            lo, hi = (n + 1, hi) if s == -s_b else (lo, n - 1)
        # r is irrational.  Move a off any root so [a, b] holds only r.
        lo, hi = a, b
        while _sign_at(ints, lo) == 0:
            lo, hi = halve(lo, hi, s_b)
        return IsolatingInterval(lo, hi)

    out: list[IsolatingInterval] = []
    stack = [(-bound, bound, var(-bound), var(bound))]
    while stack:  # left halves pop first, so out is sorted
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            out.append(one_root(a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = var(m)
            stack += [(m, b, vm, vb), (a, m, va, vm)]

    # Make the intervals pairwise disjoint as sets (they may share endpoints).
    def tighten(iv: IsolatingInterval) -> IsolatingInterval:
        return IsolatingInterval(*halve(iv.lo, iv.hi, _sign_at(ints, iv.hi)))

    # A box (a, b] yields a point r <= b, or [lo, b] with sf(b) != 0, and the next
    # box moves off b when sf(b) = 0: only an irrational [lo, b] meets the next
    # box's irrational [b, hi'], and tightening the left one parts them.
    for i in range(1, len(out)):
        while out[i - 1].hi >= out[i].lo:
            out[i - 1] = tighten(out[i - 1])
    return out


def sign_at_roots(q: Polynomial, p: Polynomial) -> SignPattern:
    """Signs of q at every real root of p, summarized as a SignPattern.

    For q != 0 and deg p >= 2 one gcd g = gcd(p, q) comes first: every real
    root of g is a root of p where q vanishes, so g outside Gamma means
    HAS_ZERO, and no chain of p is built.  Otherwise one Tarski query
    decides, without isolating or evaluating: with sf the squarefree part of
    p and n its number of real roots, the variation count t of the signed
    remainder sequence of (sf, sf' q) at -inf and +inf is the sum of
    sign q(x) over those roots (Basu-Pollack-Roy, Thm. 2.58).  So t == n
    means all positive and t == -n all negative.  Else, with c+, c- and c0
    the roots where q is positive, negative and zero, n - t = 2 c- + c0.
    Past the gcd c0 = 0 and n - t is even: MIXED.  A linear p skips the gcd;
    its one root is a root of q exactly when t = 0, and then n - t = 1 is
    odd.  So HAS_ZERO iff n - t is odd.
    """
    if p.is_zero:
        raise ZeroPolynomialError("sign_at_roots requires a nonzero second argument")
    if q.ints and len(p.ints) > 2:
        g = _gcd_cofactors(p, q)[0]
        if len(g.ints) > 1 and not is_gamma(g):
            return SignPattern.HAS_ZERO
    chain = _sturm_data(p)
    n = 0 if chain is None else _count(chain, NEG_INF, POS_INF)
    if n == 0:
        return SignPattern.NO_ROOTS
    if q.is_zero:
        return SignPattern.HAS_ZERO
    sf, dsf = chain[0], Polynomial(tuple(chain[1]))
    t = _count(_signed_remainders(sf, _strip_content((dsf * q).ints)), NEG_INF, POS_INF)
    if t == n:
        return SignPattern.ALL_POSITIVE
    if t == -n:
        return SignPattern.ALL_NEGATIVE
    return SignPattern.HAS_ZERO if (n - t) % 2 else SignPattern.MIXED


_GAMMA_CACHE_MAX = 1 << 16  # past it, a miss evicts the oldest (first inserted) key
_gamma_cache: dict[Polynomial, bool] = {}


def is_gamma(p: Polynomial) -> bool:
    """True iff p is nonzero and has no real roots (the multiplicative set Gamma).

    Nonzero constants qualify as the empty product.  A true result implies an
    even degree: an odd-degree real polynomial always has a real root.  An
    even-degree p with p(0) lc(p) <= 0 has one too, as p(0) is 0 or has the
    sign opposite to p at +-inf; neither case takes a chain.  A quadratic is
    decided by its discriminant, any other p by a Sturm count, and the
    verdict is cached.
    """
    if p.is_zero:
        return False
    deg = p.degree
    if deg == 0:
        return True
    if deg % 2 == 1 or p.ints[0] * p.ints[-1] <= 0:
        return False
    p = p.monic()  # one cache key for all nonzero scalar multiples of p
    cached = _gamma_cache.get(p)
    if cached is None:
        if deg == 2:
            # The discriminant's sign is unchanged by the positive scaling denom^2.
            c, b, a = p.ints
            cached = b * b - 4 * a * c < 0
        else:
            cached = count_distinct_real_roots(p) == 0
        if len(_gamma_cache) >= _GAMMA_CACHE_MAX:
            del _gamma_cache[next(iter(_gamma_cache))]
        _gamma_cache[p] = cached
    return cached


def is_gamma_plus(p: Polynomial) -> bool:
    """True iff p is everywhere positive: p(0) > 0, tested first, and no real roots."""
    return bool(p.ints) and p.ints[0] > 0 and is_gamma(p)
