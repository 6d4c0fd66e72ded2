"""Factorization of singular 2x2 matrices over D into idempotent factors.

The pipeline factors row matrices (p q; 0 0):

* trivial rows and proportional rows come from the two-line identities
  (0 q; 0 0) = (1 0; 0 0)(0 q; 0 1) and
  (p 0; 0 0) = (1 -1; 0 0)(1 0; 1-p 0);
* a strict degree gap is removed by one shear similarity (p, q) -> (p, p+q),
  which keeps the sign hypothesis because p vanishes at its own roots;
* the equal-degree core writes the *swapped* row (y/g, x/g; 0 0) as
  (d/(g b), 0; 0 0) * T, where d = x^2 + y*b comes from the positivity
  certificate and T = (b y/d, b x/d; y x/d, x^2/d) is idempotent with trace
  (y b + x^2)/d = 1; a final swap restores the requested order.  (Writing the
  product for the swapped row, rather than the row itself, is what makes the
  middle identity exact; expanding the unswapped variant gives the wrong
  product.)

Factor lists multiply left-to-right: the product of ``factors`` in sequence
order equals ``target``.  The pipeline stages build plain factor lists; each
public entry point (factor_row_matrix, factor_small, swap_factorization,
conjugate_factorization) verifies idempotency and the exact product once,
before returning, and raises CertificateError if the check fails.

Matrix arithmetic runs over one common denominator: a matrix is written N/d,
with N a 2x2 polynomial matrix and d the monic lcm of its entries'
denominators (root-free, so d is too).  A product is (N1 N2)/(d1 d2), with one
reduction per result entry.  Verification reduces nothing: N/d is idempotent
iff N*N == d*N, and factors N_1/d_1, ..., N_m/d_m multiply to N_T/d_T iff
(N_1 ... N_m) * d_T == N_T * (d_1 ... d_m), both polynomial identities.
Conjugation splits P = N/d once: P^-1 E P = adj(N) N_E N / (det N * d_E) for
every factor E = N_E/d_E, again with one reduction per result entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .dress import DressElement, is_member, over_common_denominator
from .errors import (
    CertificateError,
    CertificatePreconditionError,
    HypothesisNotMet,
    ShapeViolation,
    ZeroPolynomialError,
)
from .polynomials import (
    Polynomial,
    RationalFunction,
    _exact_div,
    poly_gcd,
)
from .realroots import SignPattern, is_gamma, is_gamma_plus, sign_at_roots

_FACTOR_COUNT_BOUND = 12  # empirical bound for the fixed pipeline, asserted in tests


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over D, row-major."""

    a: DressElement
    b: DressElement
    c: DressElement
    d: DressElement

    @staticmethod
    def of(a, b, c, d) -> "Mat2":
        return Mat2(_elem(a), _elem(b), _elem(c), _elem(d))

    @staticmethod
    def row(p, q) -> "Mat2":
        """The row matrix (p q; 0 0)."""
        zero = DressElement.zero()
        return Mat2(_elem(p), _elem(q), zero, zero)

    @staticmethod
    def identity() -> "Mat2":
        one, zero = DressElement.one(), DressElement.zero()
        return Mat2(one, zero, zero, one)

    @staticmethod
    def zero() -> "Mat2":
        z = DressElement.zero()
        return Mat2(z, z, z, z)

    def __mul__(self, other: "Mat2") -> "Mat2":
        # N1/d1 * N2/d2 = (N1 N2)/(d1 d2): one reduction per result entry.
        n1, d1 = _split(self)
        n2, d2 = _split(other)
        den = d1 * d2
        return Mat2(*(DressElement.from_parts(n, den) for n in _mul_numerators(n1, n2)))

    def entries(self) -> tuple[DressElement, DressElement, DressElement, DressElement]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> DressElement:
        return self.a + self.d

    def det(self) -> DressElement:
        return self.a * self.d - self.b * self.c

    def is_singular(self) -> bool:
        return self.det().is_zero

    def has_zero_second_row(self) -> bool:
        return self.c.is_zero and self.d.is_zero

    def __str__(self) -> str:
        from .parsing import format_matrix

        return format_matrix(self)

    def __repr__(self) -> str:
        return f"Mat2({self})"


def _elem(x) -> DressElement:
    if isinstance(x, DressElement):
        return x
    if isinstance(x, RationalFunction):
        return DressElement(x)
    if isinstance(x, (int, Fraction)):
        return DressElement.from_rational(x)
    if isinstance(x, Polynomial):
        return DressElement(RationalFunction.from_polynomial(x))
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


_Numerators = tuple[Polynomial, Polynomial, Polynomial, Polynomial]


def _split(m: Mat2) -> tuple[_Numerators, Polynomial]:
    """m as N/d: a polynomial matrix N over the common denominator d of the entries."""
    nums, d = over_common_denominator(m.entries())
    return tuple(nums), d


def _mul_numerators(n1: _Numerators, n2: _Numerators) -> _Numerators:
    a, b, c, d = n1
    e, f, g, h = n2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _is_idempotent_split(n: _Numerators, d: Polynomial) -> bool:
    # (N/d)^2 == N/d  <=>  N*N == d*N, since d is nonzero.
    return _mul_numerators(n, n) == tuple(x * d for x in n)


def is_idempotent(m: Mat2) -> bool:
    """Exact test m * m == m.

    With m = N/d over the common denominator of its entries this is the
    polynomial identity N*N == d*N: no gcd and no reduction.
    """
    return _is_idempotent_split(*_split(m))


def complete_idempotent_pair(p: DressElement, q: DressElement) -> Optional[Mat2]:
    """Extend a first row (p q) to an idempotent matrix (p q; r 1-p), if possible.

    Requires r = p(1 - p)/q to lie in D; returns None when it does not.
    """
    if q.is_zero:
        raise ZeroPolynomialError("the pair completion needs q != 0")
    top = p * (DressElement.one() - p)
    r = top.value / q.value
    if not is_member(r):
        return None
    m = Mat2(p, q, DressElement(r), DressElement.one() - p)
    if not is_idempotent(m):
        raise CertificateError(f"pair completion {m} is not idempotent")
    return m


@dataclass(frozen=True)
class PositivityCertificate:
    """Data making x^2 + y*beta everywhere positive.

    ``base`` is the signed root-free seed c*(1+X^2)^(e/2) and ``scale`` the
    largest power of two 2^-k that passes, found by galloping on k and then
    bisecting, so beta = -scale * base.
    Invariants (checked at construction): delta = x^2 + y*beta, delta is
    everywhere positive, beta is root-free, deg x - 1 <= deg beta <= deg x and
    deg delta = 2 deg x.
    """

    beta: Polynomial
    delta: Polynomial
    scale: Fraction
    base: Polynomial


def positivity_certificate(x: Polynomial, y: Polynomial) -> PositivityCertificate:
    """Find beta with x^2 + y*beta everywhere positive.

    Preconditions: x, y nonzero of equal degree, and y of one strict sign at
    every real root of x (vacuous when x has none).  The seed is
    +-c (1+X^2)^(e/2) with e the even member of {deg x - 1, deg x}; its sign
    opposes y's sign at the roots of x, c is the first of 1, 1/2, 1/4, ...
    that makes the leading coefficient of x^2 - base*y positive (read off in
    closed form), and the scale is the largest 2^-k for which the positivity
    test passes: k gallops over 0, 1, 3, 7, ... and is then bisected, so
    O(log k) tests are run.  Termination is guaranteed: every sufficiently
    small positive scale works, and the passing scales form an interval.
    """
    if x.is_zero or y.is_zero:
        raise CertificatePreconditionError("certificate inputs must be nonzero")
    if x.degree != y.degree:
        raise CertificatePreconditionError(
            f"certificate needs equal degrees, got {x.degree} and {y.degree}"
        )
    pattern = sign_at_roots(y, x)
    if not pattern.is_definite():
        raise CertificatePreconditionError(f"sign of y at roots of x is {pattern.value}")

    n = int(x.degree)
    e = n if n % 2 == 0 else n - 1
    seed = Polynomial.from_coeffs([1, 0, 1]) ** (e // 2)

    if pattern == SignPattern.ALL_POSITIVE:
        sign = -1
    elif pattern == SignPattern.ALL_NEGATIVE:
        sign = 1
    else:  # x has no real roots; any sign works, pick the one that can't fight the lc
        sign = -1 if y.leading_coefficient > 0 else 1

    # c = 2^-k is the first power of two with lc(x^2 - base*y) > 0.  For even
    # n that is lc(x)^2 - sign*c*lc(y) > 0, i.e. 2^k > sign*lc(y)/lc(x)^2, first
    # met at k = floor(sign*lc(y)/lc(x)^2).bit_length().  For odd n the seed
    # degree is below 2n - deg y, so the leading coefficient is lc(x)^2 and k = 0.
    ratio = 0
    if e + int(y.degree) == 2 * n:
        ratio = max(0, sign * y.leading_coefficient // x.leading_coefficient**2)
    base = seed.scale(Fraction(sign, 2 ** ratio.bit_length()))

    # Passing scales form an interval (0, s*), as delta is linear in the scale
    # at each point: gallop on k in scale = 2^-k, then bisect to the first pass.
    x_sq, base_y = x * x, base * y

    def passes(k: int) -> bool:
        return is_gamma_plus(x_sq - base_y.scale(Fraction(1, 2**k)))

    failing, k = -1, 0
    while not passes(k):
        failing, k = k, 2 * k + 1
    while k - failing > 1:
        mid = (failing + k) // 2
        if passes(mid):
            k = mid
        else:
            failing = mid
    scale = Fraction(1, 2**k)
    delta = x_sq - base_y.scale(scale)
    beta = base.scale(-scale)
    if not is_gamma(beta):
        raise CertificateError(f"certificate beta = {beta} has real roots")
    if x_sq + y * beta != delta:
        raise CertificateError("certificate identity delta = x^2 + y*beta violated")
    if not (n - 1 <= beta.degree <= n and delta.degree == 2 * n):
        raise CertificateError(
            f"certificate degrees out of range: deg x = {n}, "
            f"deg beta = {beta.degree}, deg delta = {delta.degree}"
        )
    return PositivityCertificate(beta=beta, delta=delta, scale=scale, base=base)


def positivity_certificate_b(x: Polynomial, y: Polynomial) -> PositivityCertificate:
    """Mirror certificate: eta (returned in ``beta``) with x*eta + y^2 everywhere positive.

    This is the role-swapped form: precondition is a definite sign of x at the
    roots of y, and the invariants read delta = x*beta + y^2 with
    deg y - 1 <= deg beta <= deg y.
    """
    return positivity_certificate(y, x)


@dataclass(frozen=True)
class Factorization:
    """A target matrix with a list of idempotent factors multiplying to it.

    The constructor does not verify.  The public functions of this module run
    :func:`verify_factorization` once on every factorization they return and
    raise CertificateError when it fails; callers can run the same check on
    independently built candidates.
    """

    target: Mat2
    factors: tuple[Mat2, ...]

    def product(self) -> Mat2:
        acc = Mat2.identity()
        for f in self.factors:
            acc = acc * f
        return acc


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification.

    ``failure`` is ``"factor-not-idempotent"`` (with ``factor_index``),
    ``"product-mismatch"``, or, from the CLI ``verify`` command when an
    input entry cannot be parsed into the ring, ``"entry-not-in-ring"``.
    """

    ok: bool
    failure: Optional[str] = None
    factor_index: Optional[int] = None


def verify_factorization(f: Factorization) -> VerificationReport:
    """Re-check idempotency of every factor and the exact product.

    Every matrix is written N/d over the common denominator of its entries.
    A factor N_k/d_k is idempotent iff N_k*N_k == d_k*N_k.  The factors are
    then multiplied left to right without reducing, acc_N/acc_d =
    (N_1 ... N_m)/(d_1 ... d_m), and the product equals the target N_T/d_T
    iff acc_N*d_T == N_T*acc_d entrywise.  Only polynomial products and
    comparisons are needed; no gcd is taken.  The first non-idempotent factor
    is reported (with its index) before any product mismatch.

    Entry membership needs no check: every DressElement is certified to lie
    in the ring when it is constructed.
    """
    split = [_split(m) for m in f.factors]
    for i, (n, d) in enumerate(split):
        if not _is_idempotent_split(n, d):
            return VerificationReport(False, "factor-not-idempotent", i)
    one, zero = Polynomial.one(), Polynomial.zero()
    acc_n, acc_d = (one, zero, zero, one), one
    for n, d in split:
        acc_n, acc_d = _mul_numerators(acc_n, n), acc_d * d
    target_n, target_d = _split(f.target)
    if any(x * target_d != t * acc_d for x, t in zip(acc_n, target_n)):
        return VerificationReport(False, "product-mismatch")
    return VerificationReport(True)


def _verified(target: Mat2, factors: list[Mat2]) -> Factorization:
    """The one certificate check, run where a public function returns."""
    fact = Factorization(target, tuple(factors))
    report = verify_factorization(fact)
    if not report.ok:
        index = "" if report.factor_index is None else f" at factor {report.factor_index}"
        raise CertificateError(
            f"factorization of {target} failed verification: {report.failure}{index}"
        )
    return fact


def _shear(u) -> Mat2:
    """(1 u; 0 1); invertible over D whenever u is."""
    return Mat2.of(1, u, 0, 1)


def _conjugate(factors: Iterable[Mat2], p: Mat2) -> list[Mat2]:
    """Every E mapped to P^-1 E P; similarity preserves idempotency and products.

    With P = N/d, P^-1 = d adj(N)/det N, so E = N_E/d_E maps to
    adj(N) N_E N / (det N * d_E): P is split once, and each entry of each
    result takes one reduction.  P is invertible over D iff det P = det N/d^2
    is a unit.
    """
    (a, b, c, d), den = _split(p)
    det = a * d - b * c
    if not DressElement.from_parts(det, den * den).is_unit():
        raise ShapeViolation("conjugation needs a matrix invertible over the ring")
    n, adj = (a, b, c, d), (d, -b, -c, a)
    out = []
    for e in factors:
        n_e, d_e = _split(e)
        den_e = det * d_e
        out.append(Mat2(*(DressElement.from_parts(x, den_e)
                          for x in _mul_numerators(_mul_numerators(adj, n_e), n))))
    return out


def _swap(factors: Iterable[Mat2]) -> list[Mat2]:
    """Factors of (q p; 0 0) from factors of (p q; 0 0).

    Conjugating by the permutation matrix P = (0 1; 1 0) factors (0 0; p q);
    prepending the idempotent (1 1; 0 0) then restores a row matrix with the
    entries swapped.  P (a b; c d) P = (d c; b a), so the conjugation only
    permutes entries.
    """
    return [Mat2.of(1, 1, 0, 0)] + [Mat2(e.d, e.c, e.b, e.a) for e in factors]


def conjugate_factorization(f: Factorization, p: Mat2) -> Factorization:
    """Map every factor E to P^-1 E P (and the target likewise), verified."""
    conjugated = _conjugate((f.target,) + f.factors, p)
    return _verified(conjugated[0], conjugated[1:])


def swap_factorization(f: Factorization) -> Factorization:
    """From a factorization of (p q; 0 0) produce a verified one of (q p; 0 0)."""
    if not f.target.has_zero_second_row():
        raise ShapeViolation("swap needs a target with zero second row")
    return _verified(Mat2.row(f.target.b, f.target.a), _swap(f.factors))


def _factor_zero_q(p: DressElement) -> list[Mat2]:
    # (p 0; 0 0) = (1 -1; 0 0)(1 0; 1-p 0)
    return [Mat2.of(1, -1, 0, 0), Mat2(DressElement.one(), DressElement.zero(),
                                       DressElement.one() - p, DressElement.zero())]


def _factor_zero_p(q: DressElement) -> list[Mat2]:
    # (0 q; 0 0) = (1 0; 0 0)(0 q; 0 1)
    return [Mat2.of(1, 0, 0, 0), Mat2(DressElement.zero(), q, DressElement.zero(),
                                      DressElement.one())]


def _factor_proportional(p: DressElement, r: DressElement) -> list[Mat2]:
    # (p rp; 0 0) = (1 -1; 0 0)(1 0; 1-p 0)(1 r; 0 0)
    return _factor_zero_q(p) + [Mat2.row(DressElement.one(), r)]


def factor_row_matrix(p: DressElement, q: DressElement) -> Factorization:
    """Factor (p q; 0 0) into idempotent matrices over D.

    Branches, in order: zero entries; proportional entries (either way); the
    main sign-hypothesis pipeline for deg p >= deg q (with a swap reduction
    for the mirrored hypothesis); the small-degree construction for quadratic
    numerators sharing a linear factor.  When no branch applies,
    HypothesisNotMet reports the computed sign patterns and degrees.
    """
    target = Mat2.row(p, q)
    if p.is_zero and q.is_zero:
        return _verified(target, [Mat2.zero()])
    if p.is_zero:
        return _verified(target, _factor_zero_p(q))
    if q.is_zero:
        return _verified(target, _factor_zero_q(p))

    ratio_qp = q.value / p.value
    if is_member(ratio_qp):
        return _verified(target, _factor_proportional(p, DressElement(ratio_qp)))
    ratio_pq = p.value / q.value
    if is_member(ratio_pq):
        return _verified(target, _swap(_factor_proportional(q, DressElement(ratio_pq))))

    sign_q_at_p = sign_at_roots(q.numerator, p.numerator)
    if p.degree >= q.degree and sign_q_at_p.is_definite():
        return _verified(target, _factor_dominant(p, q))
    sign_p_at_q = sign_at_roots(p.numerator, q.numerator)
    if q.degree >= p.degree and sign_p_at_q.is_definite():
        return _verified(target, _swap(_factor_dominant(q, p)))

    (x, y), gamma = over_common_denominator([p, q])
    if x.degree == 2 and y.degree == 2:
        m = poly_gcd(x, y)
        if m.degree == 1:  # degree 2 would be proportional, handled above
            return _verified(target, _factor_quadratics_sharing_root(x, y, gamma, m))
    raise HypothesisNotMet(
        "no factorization hypothesis applies: "
        f"deg p = {p.degree}, deg q = {q.degree}, "
        f"sign of q at roots of p: {sign_q_at_p.value}, "
        f"sign of p at roots of q: {sign_p_at_q.value}",
        sign_q_at_p=sign_q_at_p,
        sign_p_at_q=sign_p_at_q,
        deg_p=p.degree,
        deg_q=q.degree,
    )


def _factor_dominant(p: DressElement, q: DressElement) -> list[Mat2]:
    """Hypothesis branch: deg p >= deg q and q sign-definite at the roots of p."""
    if p.degree > q.degree:
        # One shear similarity replaces q by p + q, which has deg p exactly and
        # the same values as q at every root of p.
        return _conjugate(_factor_equal_degree(p, p + q), _shear(-1))
    return _factor_equal_degree(p, q)


def _factor_equal_degree(p: DressElement, q: DressElement) -> list[Mat2]:
    (x, y), gamma = over_common_denominator([p, q])
    if x.degree != y.degree:
        raise CertificateError(f"equal-degree branch got numerator degrees {x.degree}, {y.degree}")
    if gamma.degree > x.degree + 1:
        # Pad: pull out (tau/gamma 0; 0 0) so the remaining denominator tau has
        # the even degree in {deg x, deg x + 1}.
        n = int(x.degree)
        e = n if n % 2 == 0 else n + 1
        tau = Polynomial.from_coeffs([1, 0, 1]) ** (e // 2)
        return _factor_zero_q(DressElement.from_parts(tau, gamma)) + _factor_core(x, y, tau)
    return _factor_core(x, y, gamma)


def _factor_core(x: Polynomial, y: Polynomial, gamma: Polynomial) -> list[Mat2]:
    """Equal-degree core over a common denominator with deg gamma <= deg x + 1."""
    cert = positivity_certificate(x, y)
    beta, delta = cert.beta, cert.delta
    u = DressElement(RationalFunction.make(delta, gamma * beta))
    if not u.is_unit():
        raise CertificateError(f"delta/(gamma*beta) = {u} must be a unit")
    t = Mat2(
        DressElement.from_parts(beta * y, delta),
        DressElement.from_parts(beta * x, delta),
        DressElement.from_parts(y * x, delta),
        DressElement.from_parts(x * x, delta),
    )
    # (u 0; 0 0) * t factors the swapped row (y/gamma, x/gamma; 0 0).
    return _swap(_factor_zero_q(u) + [t])


def factor_small(p: DressElement, q: DressElement) -> Factorization:
    """Small-numerator factorizations: degrees <= 1, or quadratics sharing a root.

    Over the common denominator, numerators of degree <= 1 always satisfy a
    main-pipeline branch (a single root forces a definite sign, and common
    roots force proportionality).  Two degree-2 numerators with a nonconstant
    gcd are proportional or reach the common-root branch.  Both shapes
    dispatch through factor_row_matrix; any other shape is rejected.
    """
    (x, y), _ = over_common_denominator([p, q])
    if (x.degree <= 1 and y.degree <= 1) or (
        x.degree == 2 and y.degree == 2 and poly_gcd(x, y).degree >= 1
    ):
        return factor_row_matrix(p, q)
    raise ShapeViolation(
        "factor_small needs numerators of degree <= 1, or degree-2 numerators "
        f"with a nonconstant gcd (got degrees {x.degree}, {y.degree})"
    )


def _factor_quadratics_sharing_root(
    x: Polynomial,
    y: Polynomial,
    gamma: Polynomial,
    m: Polynomial,
) -> list[Mat2]:
    """deg x = deg y = 2 with gcd M = X - rho: build one idempotent directly.

    x = M*x1 and y = M*y1 with x1, y1 linear and independent, and
    c = -lc(y1)/lc(x1) kills the linear term of c*x1 + y1, so c*x + y = s'M
    with s' a nonzero constant.  With delta = x + M + c0 root-free (see
    _grow_linear_to_gamma), the row (x/delta, s'M/delta; 0 0) is
    (1 0; 0 0) * e for the idempotent e = (x/delta, s'M/delta; z/delta,
    (delta-x)/delta), z = (delta-x)*x1/s'.  Conjugating by the shear with
    parameter -c turns it into (x/delta, y/delta; 0 0), and the prefactor
    (delta/gamma 0; 0 0) restores the denominator.
    """
    x1 = _exact_div(x, m)
    y1 = _exact_div(y, m)
    c = -y1.leading_coefficient / x1.leading_coefficient
    combo = x1.scale(c) + y1
    if combo.degree > 0:
        raise CertificateError(f"c*x1 + y1 = {combo} kept a linear term")
    if combo.is_zero:
        # x and y proportional after all; cannot happen with deg gcd = 1.
        raise ShapeViolation("numerators are proportional, use the divisibility branch")
    s_prime = combo.coeffs[0]

    delta = _grow_linear_to_gamma(x, m)
    diff = delta - x
    if diff.degree != 1:
        raise CertificateError(f"delta - x = {diff} is not linear")
    z = (diff * x1).scale(1 / s_prime)
    e = Mat2(
        DressElement.from_parts(x, delta),
        DressElement.from_parts(m.scale(s_prime), delta),
        DressElement.from_parts(z, delta),
        DressElement.from_parts(diff, delta),
    )
    return _factor_zero_q(DressElement.from_parts(delta, gamma)) + _conjugate(
        [Mat2.of(1, 0, 0, 0), e], _shear(-c)
    )


def _grow_linear_to_gamma(x: Polynomial, m: Polynomial) -> Polynomial:
    """First delta = x + M + c0, c0 in +-{1, 2, 4, ...}, with no real roots.

    In t = X - rho (M = X - rho, a root of x), x = a t^2 + b t with
    b = x'(rho), so delta = a t^2 + (b+1) t + c0 is root-free iff
    (b+1)^2 < 4*a*c0.  With c0 = sign(a)*2^k that is 2^k > (b+1)^2/(4|a|),
    first reached at k = floor((b+1)^2/(4|a|)).bit_length().
    """
    a = x.leading_coefficient
    b = x.derivative().evaluate(-m.coeffs[0])
    k = ((b + 1) ** 2 // (4 * abs(a))).bit_length()
    delta = x + m + (1 if a > 0 else -1) * 2**k
    if not is_gamma(delta):
        raise CertificateError(f"delta = {delta} has real roots")
    return delta


@dataclass(frozen=True)
class StableRangeEvidence:
    """Witness data showing a + b*z is never a unit for a = X/(1+X^2), b = (X^2-1)/(1+X^2).

    ``sum_sq_unit`` confirms a^2 + b^2 is a unit, so (a, b) is the whole ring;
    the two signed values of f1 = X*d' + (X^2 - 1)*f at 1 and -1 certify a
    real zero of a + b*z in [-1, 1], so a + b*z is not a unit.
    """

    sum_sq_unit: bool
    value_at_1: Fraction
    value_at_minus_1: Fraction
    sign_at_1: str
    sign_at_minus_1: str
    nonunit_certified: bool


def stable_range_witness(z: DressElement) -> StableRangeEvidence:
    """Evaluate the square-stable-range witness pair at z."""
    gamma = Polynomial.from_coeffs([1, 0, 1])
    a = DressElement.from_parts(Polynomial.x(), gamma)
    b = DressElement.from_parts(Polynomial.from_coeffs([-1, 0, 1]), gamma)
    sum_sq_unit = (a * a + b * b).is_unit()
    # z = f/d' with d' everywhere positive: the reduced denominator is monic
    # and root-free, hence positive.
    f = z.numerator
    d_pos = z.denominator
    f1 = Polynomial.x() * d_pos + Polynomial.from_coeffs([-1, 0, 1]) * f
    v1 = f1.evaluate(1)
    v_minus = f1.evaluate(-1)
    if not (v1 > 0 and v_minus < 0):
        raise CertificateError(f"witness values {v1} at 1 and {v_minus} at -1 must be + and -")
    return StableRangeEvidence(
        sum_sq_unit=sum_sq_unit,
        value_at_1=v1,
        value_at_minus_1=v_minus,
        sign_at_1="+" if v1 > 0 else "-",
        sign_at_minus_1="+" if v_minus > 0 else "-",
        nonunit_certified=sum_sq_unit and v1 > 0 and v_minus < 0,
    )
