"""Factorization of singular 2x2 matrices over D into idempotent factors.

The pipeline factors row matrices (p q; 0 0):

* trivial rows and proportional rows come from the two-line identities
  (0 q; 0 0) = (1 0; 0 0)(0 q; 0 1) and
  (p 0; 0 0) = (1 -1; 0 0)(1 0; 1-p 0);
* a strict degree gap is removed by one shear similarity (p, q) -> (p, p+q),
  which keeps the sign hypothesis because p vanishes at its own roots;
* the equal-degree core writes the *swapped* row (y/g, x/g; 0 0) as
  (d/(g b), 0; 0 0) * T, where d = x^2 + y*b comes from the positivity
  certificate and T = (b; x)(y x)/d is idempotent, since (y x).(b; x) = d;
  a final swap restores the requested order.  (Writing the product for the
  swapped row, rather than the row itself, is what makes the middle identity
  exact; expanding the unswapped variant gives the wrong product.)

Factor lists multiply left-to-right: the product of ``factors`` in sequence
order equals ``target``.  Inside this module every factor but the zero matrix
is a rank-one idempotent, held as a triple (v, w, s) of two polynomial pairs
and a nonzero polynomial: E = v w^T / s, idempotent iff w.v == s, as in
(1 0; 1-p 0) = (pd; pd-pn)(1 0)/pd for p = pn/pd.  Swaps and conjugations map
triples to triples without reducing; the pipeline's shears P = (1 t; 0 1) are
the two-term map (v, w, s) -> ((v1 - t v2, v2), (w1, t w1 + w2), s).  One
check (w.v == s per factor, then the telescoped product against the target
N_T/d_T) runs once where each public function returns: each identity, cleared
of integer denominators, is compared by its two sides' values at one X = 2^k,
large enough to make that exact.  Only then is each Mat2 built, and an entry
found outside D there is reported by the same check.  The stages check
nothing of their own, so any internal fault surfaces as one CertificateError.
Each nonzero entry v_i w_j / s is reduced by make (one gcd); when s is
root-free, an entry's membership in D is its degree bound, else the checked
constructor.

Each row takes one common-denominator pass, (p, q) = (x, y)/gamma, and every
branch reads x, y, gamma and the one gcd g = gcd(x, y): q/p lies in D iff
deg y <= deg x and x/g is root-free, and the shear (p, q) -> (p, p+q) is
(x, x+y) over the same gamma, since lcm(den p, den(p+q)) = lcm(den p, den q).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .dress import DressElement, _elem, over_common_denominator
from .errors import (
    CertificateError,
    CertificatePreconditionError,
    HypothesisNotMet,
    NotInDressRing,
    ShapeViolation,
)
from .parsing import format_fraction
from .polynomials import (
    _GAMMA1,
    Polynomial,
    RationalFunction,
    _coerce,
    _gcd_cofactors,
    _kronecker,
)
from .realroots import SignPattern, is_gamma, is_gamma_plus, sign_at_roots


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix over D, row-major."""

    a: DressElement
    b: DressElement
    c: DressElement
    d: DressElement

    def __init__(self, a: DressElement, b: DressElement, c: DressElement, d: DressElement):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

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


_set_a, _set_b, _set_c, _set_d = Mat2.a.__set__, Mat2.b.__set__, Mat2.c.__set__, Mat2.d.__set__


# (v, w, s) is v w^T / s.  In factor lists None stands for the identity, which
# has rank two, and False for a candidate that failed _factor_of.
_Factor = tuple[tuple[Polynomial, Polynomial], tuple[Polynomial, Polynomial], Polynomial]
_0, _1 = Polynomial.zero(), Polynomial.one()
_ZERO_FACTOR: _Factor = ((_0, _0), (_0, _0), _1)
_E11: _Factor = ((_1, _0), (_1, _0), _1)  # (1 0; 0 0)
_ZERO_ENTRY = DressElement.zero()


def _factor_of(m: Mat2):
    """A candidate N/d as a factor, or False when it is not idempotent.

    N == 0 is the zero factor and N == d*I the identity (None); any other N/d
    is idempotent iff det N == 0 and tr N == d (Cayley-Hamilton), and rank one
    then makes N_kj N_il == N_ij N_kl, so N/d = (column j)(row i)/(d*N_ij).
    """
    n, den = over_common_denominator(m.entries())
    a, b, c, d = n
    if not any(n):
        return _ZERO_FACTOR
    if a == den == d and not (b or c):
        return None
    if a * d != b * c or a + d != den:
        return False
    r = 0 if a or b else 2  # the first nonzero row is n[r], n[r + 1]
    j = 0 if n[r] else 1  # and n[r + j] its first nonzero entry
    return (n[j], n[j + 2]), (n[r], n[r + 1]), den * n[r + j]


def _matrix(f: Optional[_Factor]) -> Mat2:
    """The Mat2 of a factor v w^T / s, each nonzero entry make(v_i w_j, s).

    A reduced denominator divides s, so when s is root-free (one cached
    is_gamma per factor) an entry lies in D iff deg num <= deg den.  Every
    other entry goes through the checked DressElement constructor, which
    raises NotInDressRing.
    """
    if f is None:
        return Mat2.identity()
    v, w, s = f
    root_free = is_gamma(s)
    entries = []
    for vi in v:
        for wj in w:
            if not (vi and wj):
                entries.append(_ZERO_ENTRY)
                continue
            value = RationalFunction.make(vi * wj, s)
            if root_free and len(value.num.ints) <= len(value.den.ints):
                entries.append(DressElement._certified(value))  # deg num <= deg den, s root-free
            else:
                entries.append(DressElement(value))
    return Mat2(*entries)


def is_idempotent(m: Mat2) -> bool:
    """Exact test m * m == m: for m = N/d, N == 0, N == d*I, or det N == 0 and tr N == d."""
    return _factor_of(m) is not False


@dataclass(frozen=True, slots=True)
class PositivityCertificate:
    """Data making x^2 + y*beta everywhere positive.

    ``base`` is the signed root-free seed c*(1+X^2)^(e/2) and ``scale`` the
    largest power of two 2^-k that passes, found by galloping on k and then
    bisecting, so beta = -scale * base.
    Invariants (checked by positivity_certificate; the search itself tests
    that delta is everywhere positive): delta = x^2 + y*beta, beta is
    root-free, deg x - 1 <= deg beta <= deg x and deg delta = 2 deg x.
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
    x, y = _coerce(x), _coerce(y)
    if x is NotImplemented or y is NotImplemented:
        raise TypeError("certificate inputs must be polynomials or rational numbers")
    if x.is_zero or y.is_zero:
        raise CertificatePreconditionError("certificate inputs must be nonzero")
    cert = _certificate(x, y, sign_at_roots(y, x))
    n, beta, delta = int(x.degree), cert.beta, cert.delta
    if not is_gamma(beta):
        raise CertificateError(f"certificate beta = {beta} has real roots")
    # Scaled by D^2: (D x)(D x) + (D y)(D beta) == D (D delta), three
    # products of members of the list (x listed twice), one times D.
    d, _, at = _kronecker((x, x, y, beta, delta), 3, 1)
    if at(x) ** 2 + at(y) * at(beta) != d * at(delta):
        raise CertificateError("certificate identity delta = x^2 + y*beta violated")
    if not (n - 1 <= beta.degree <= n and delta.degree == 2 * n):
        raise CertificateError(
            f"certificate degrees out of range: deg x = {n}, "
            f"deg beta = {beta.degree}, deg delta = {delta.degree}"
        )
    return cert


def _certificate(x: Polynomial, y: Polynomial, pattern: SignPattern) -> PositivityCertificate:
    """The certificate of nonzero x, y; pattern is sign_at_roots(y, x).

    Equal degrees and a definite pattern are the two preconditions that keep
    the scale search finite, so both are checked here, for every caller.
    """
    if x.degree != y.degree:
        raise CertificatePreconditionError(
            f"certificate needs equal degrees, got {x.degree} and {y.degree}"
        )
    if not pattern.is_definite():
        raise CertificatePreconditionError(f"sign of y at roots of x is {pattern.value}")

    n = int(x.degree)
    e = n if n % 2 == 0 else n - 1
    seed = _GAMMA1 ** (e // 2)

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
    return PositivityCertificate(beta=base.scale(-scale), delta=delta, scale=scale, base=base)


@dataclass(frozen=True, slots=True)
class Factorization:
    """A target matrix with a list of idempotent factors multiplying to it.

    The constructor does not verify.  The public functions of this module
    certify each factorization they return once and raise CertificateError
    when that fails; :func:`verify_factorization` runs the same check.
    """

    target: Mat2
    factors: tuple[Mat2, ...]


@dataclass(frozen=True, slots=True)
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
    A factor is idempotent iff N == 0, N == d*I, or det N == 0 and tr N == d
    (Cayley-Hamilton); one of rank one is then v w^T / s, and the product
    v_1 (w_1.v_2) ... (w_{k-1}.v_k) w_k^T / (s_1 ... s_k), identities skipped,
    is compared with the target N_T/d_T in four cross-multiplied entries, with
    no gcd, each identity by one integer evaluation (see _verify_triples).
    The first non-idempotent factor is reported (with its index) before any
    product mismatch.

    Entry membership needs no check: every DressElement is certified to lie
    in the ring when it is constructed.
    """
    target = over_common_denominator(f.target.entries())
    return _verify_triples(target, [_factor_of(m) for m in f.factors])


def _verify_triples(target, factors) -> VerificationReport:
    """The one check: w.v == s per factor, then the telescoped product against (N_T, d_T).

    Every identity is decided by one integer evaluation (Kronecker
    substitution, _kronecker).  With D the lcm of every polynomial's integer
    denominator, each polynomial p becomes the integer polynomial P = D p,
    and for the m rank-one factors the identities read, in Z[X],

        W_1 V_1 + W_2 V_2 == D S                                    (each factor)
        (W_1.V_2) ... (W_{m-1}.V_m) V_1i W_mj T_d == D^m T_ij S_1 ... S_m

    (for m = 0 the product side is the identity entry times T_d).  Each is
    A == B, decided by A(2^k) == B(2^k): every P is read at X = 2^k, and the
    products are integer products.  The two sides of each identity
    together are at most 2^(m+1) products of distinct polynomials P (the
    four T_ij among them), each times at most D^m: that is the bound
    _kronecker's exactness proof takes k from.
    """
    target_n, target_d = target
    rank_one = [f for f in factors if f]
    polys = [target_d, *target_n, *(p for v, w, s in rank_one for p in (*v, *w, s))]
    m = len(rank_one)
    d, _, at = _kronecker(polys, 2 ** (m + 1), m)

    first, w_last, scalar, den = None, None, 1, 1
    for i, f in enumerate(factors):
        if f is None:
            continue
        if f is False:
            return VerificationReport(False, "factor-not-idempotent", i)
        (v1, v2), (w1, w2), s = f
        x1, x2, y1, y2, z = at(v1), at(v2), at(w1), at(w2), at(s)
        if (v1 or v2) and (w1 or w2) and y1 * x1 + y2 * x2 != d * z:
            return VerificationReport(False, "factor-not-idempotent", i)  # not w.v == s, nor zero
        if first is None:
            first = x1, x2
        else:
            scalar *= w_last[0] * x1 + w_last[1] * x2
        w_last, den = (y1, y2), den * z
    num = (1, 0, 0, 1) if first is None else [scalar * x * y for x in first for y in w_last]
    t_d, den = at(target_d), d**m * den
    if any(x * t_d != at(t) * den for x, t in zip(num, target_n)):
        return VerificationReport(False, "product-mismatch")
    return VerificationReport(True)


def _verified(target: Mat2, split, factors) -> Factorization:
    """Check the factors against the target's split (N_T, d_T), then build the Mat2 factors.

    This is the pipeline's one check: a factor that fails it, or an entry that
    _matrix finds outside D, is an internal fault and raises CertificateError.
    """
    report = _verify_triples(split, factors)
    if report.ok:
        matrices = []
        try:
            for f in factors:
                matrices.append(_matrix(f))
        except NotInDressRing as exc:
            report = VerificationReport(False, f"entry-not-in-ring ({exc.reason})", len(matrices))
        else:
            return Factorization(target, tuple(matrices))
    index = "" if report.factor_index is None else f" at factor {report.factor_index}"
    raise CertificateError(
        f"factorization of {target} failed verification: {report.failure}{index}"
    )


def _conjugate(factors: Iterable, n) -> list:
    """Every E = v w^T / s mapped to P^-1 E P = (adj(N) v)(N^T w)^T / (det N * s).

    ``n`` is the numerator matrix N of P = N/d, which the caller has checked to
    be invertible over D; d cancels, and nothing is reduced.
    """
    a, b, c, d = n
    det = a * d - b * c

    def image(f: _Factor) -> _Factor:
        (v1, v2), (w1, w2), s = f
        return (d * v1 - b * v2, a * v2 - c * v1), (a * w1 + c * w2, b * w1 + d * w2), det * s

    return [image(f) if f else f for f in factors]


def _shear(factors: Iterable[_Factor], t) -> list[_Factor]:
    """Every E = v w^T / s mapped to P^-1 E P for the shear P = (1 t; 0 1).

    P^-1 E P = (P^-1 v)(P^T w)^T / s with P^-1 v = (v1 - t v2, v2) and
    P^T w = (w1, t w1 + w2); det P = 1 leaves s as it is.
    """
    t = Fraction(t)
    return [((v1 - v2.scale(t), v2), (w1, w1.scale(t) + w2), s)
            for (v1, v2), (w1, w2), s in factors]


def _swap(factors: Iterable) -> list:
    """Factors of (q p; 0 0) from factors of (p q; 0 0).

    Conjugating by P = (0 1; 1 0) factors (0 0; p q), and prepending the
    idempotent (1 1; 0 0) restores a row matrix with the entries swapped.
    P v w^T P = (P v)(P w)^T swaps the entries of v and of w.
    """
    return [((_1, _0), (_1, _1), _1)] + [(f[0][::-1], f[1][::-1], f[2]) if f else f
                                         for f in factors]


def conjugate_factorization(f: Factorization, p: Mat2) -> Factorization:
    """Map every factor E to P^-1 E P (and the target likewise), verified.

    P = N/d is invertible over D iff det P = det N/d^2 is a unit.  The target
    N_T/d_T = (e_1 (a b) + e_2 (c d))/d_T is mapped term by term.
    """
    n, d_p = over_common_denominator(p.entries())
    if not DressElement.from_parts(n[0] * n[3] - n[1] * n[2], d_p * d_p).is_unit():
        raise ShapeViolation("conjugation needs a matrix invertible over the ring")
    (a, b, c, d), den = over_common_denominator(f.target.entries())
    rows = [((_1, _0), (a, b), den), ((_0, _1), (c, d), den)]
    (u, x, den), (v, y, _), *factors = _conjugate(rows + [_factor_of(m) for m in f.factors], n)
    nums = tuple(u[i] * x[j] + v[i] * y[j] for i in (0, 1) for j in (0, 1))
    target = Mat2(*(DressElement.from_parts(t, den) for t in nums))
    return _verified(target, (nums, den), factors)


def swap_factorization(f: Factorization) -> Factorization:
    """From a factorization of (p q; 0 0) produce a verified one of (q p; 0 0)."""
    if not f.target.has_zero_second_row():
        raise ShapeViolation("swap needs a target with zero second row")
    (a, b, _, _), den = over_common_denominator(f.target.entries())
    return _verified(Mat2.row(f.target.b, f.target.a), ((b, a, _0, _0), den),
                     _swap(map(_factor_of, f.factors)))


def _factor_zero_q(num: Polynomial, den: Polynomial) -> list[_Factor]:
    # (p 0; 0 0) = (1 -1; 0 0)(1 0; 1-p 0), (1 0; 1-p 0) = (den; den-num)(1 0)/den
    return [((_1, _0), (_1, -_1), _1), ((den, den - num), (_1, _0), den)]


def _factor_zero_p(num: Polynomial, den: Polynomial) -> list[_Factor]:
    # (0 q; 0 0) = (1 0; 0 0)(0 q; 0 1), (0 q; 0 1) = (num; den)(0 1)/den
    return [_E11, ((num, den), (_0, _1), den)]


def _factor_proportional(num: Polynomial, den: Polynomial, r: RationalFunction) -> list[_Factor]:
    # (p rp; 0 0) = (1 -1; 0 0)(1 0; 1-p 0)(1 r; 0 0), (1 r; 0 0) = (1; 0)(rd rn)/rd
    return _factor_zero_q(num, den) + [((_1, _0), (r.den, r.num), r.den)]


def _member_ratio(num: Polynomial, den: Polynomial) -> Optional[RationalFunction]:
    """num/den in lowest terms when it lies in D, else None.

    num and den are coprime, so the fraction is already reduced: it lies in D
    iff deg num <= deg den and den is root-free.
    """
    if num.degree > den.degree or not is_gamma(den):
        return None
    if den.ints[-1] != den.denom:
        num = num.scale(1 / den.leading_coefficient)
    return RationalFunction(num, den.monic())


def factor_row_matrix(p: DressElement, q: DressElement) -> Factorization:
    """Factor (p q; 0 0) into idempotent matrices over D.

    Branches, in order: zero entries; proportional entries (either way); the
    main sign-hypothesis pipeline for deg p >= deg q (with a swap reduction
    for the mirrored hypothesis); the small-degree construction for quadratic
    numerators sharing a linear factor.  When no branch applies,
    HypothesisNotMet reports the computed sign patterns and degrees, and the
    numerators (x, y) over gamma that every branch and the final check read.
    """
    p, q = _elem(p), _elem(q)
    (x, y), gamma = over_common_denominator([p, q])
    return _factor_row(p, q, x, y, gamma)


def _factor_row(p, q, x, y, gamma, cofactors=None) -> Factorization:
    """factor_row_matrix of the DressElements (p, q) = (x, y)/gamma.

    ``cofactors`` is (g, x/g, y/g) for g = gcd(x, y), if the caller has it.
    """
    target, split = Mat2.row(p, q), ((x, y, _0, _0), gamma)
    if not (x or y):
        return _verified(target, split, [_ZERO_FACTOR])
    if not x:
        return _verified(target, split, _factor_zero_p(y, gamma))
    if not y:
        return _verified(target, split, _factor_zero_q(x, gamma))

    # q/p = (y/g)/(x/g) in lowest terms
    g, x_g, y_g = cofactors or _gcd_cofactors(x, y)
    if (r := _member_ratio(y_g, x_g)) is not None:
        return _verified(target, split, _factor_proportional(x, gamma, r))
    if (r := _member_ratio(x_g, y_g)) is not None:
        return _verified(target, split, _swap(_factor_proportional(y, gamma, r)))

    # x = p.numerator * (gamma/den p), and likewise for y.  Every DressElement
    # has a monic denominator, so the cofactor gamma/den p is monic and
    # root-free, hence positive everywhere: each row pattern is also the sign
    # of y at the roots of x (x at the roots of y) that the certificate needs.
    sign_q_at_p = sign_at_roots(q.numerator, p.numerator)
    if x.degree >= y.degree and sign_q_at_p.is_definite():
        return _verified(target, split, _factor_dominant(x, y, gamma, sign_q_at_p))
    sign_p_at_q = sign_at_roots(p.numerator, q.numerator)
    if y.degree >= x.degree and sign_p_at_q.is_definite():
        return _verified(target, split, _swap(_factor_dominant(y, x, gamma, sign_p_at_q)))

    if x.degree == 2 and y.degree == 2 and g.degree == 1:
        # degree 2 would be proportional, handled above
        return _verified(target, split, _factor_quadratics_sharing_root(x, gamma, g, x_g, y_g))
    raise HypothesisNotMet(
        "no factorization hypothesis applies: "
        f"deg p = {p.degree}, deg q = {q.degree}, "
        f"sign of q at roots of p: {sign_q_at_p.value}, "
        f"sign of p at roots of q: {sign_p_at_q.value}",
        sign_q_at_p=sign_q_at_p,
        sign_p_at_q=sign_p_at_q,
        deg_p=p.degree,
        deg_q=q.degree,
        numerators=(x, y),
        denominator=gamma,
    )


def _factor_dominant(x: Polynomial, y: Polynomial, gamma: Polynomial,
                     pattern: SignPattern) -> list[_Factor]:
    """Hypothesis branch: deg x >= deg y and y sign-definite at the roots of x.

    ``pattern`` is sign_at_roots(y, x), passed on to the certificate.  Shear,
    pad, then the equal-degree core, as in the module docstring: the shear
    replaces y by x + y, of degree deg x and with the values of y at the roots
    of x, so the pattern holds; the pad pulls out (tau/gamma 0; 0 0) so that
    the denominator tau left has the even degree in {deg x, deg x + 1}.
    """
    shear = x.degree > y.degree
    if shear:
        y = x + y
    tau, factors = gamma, []
    if gamma.degree > x.degree + 1:
        n = int(x.degree)
        tau = _GAMMA1 ** ((n + n % 2) // 2)
        factors = _factor_zero_q(tau, gamma)
    cert = _certificate(x, y, pattern)
    beta, delta = cert.beta, cert.delta
    u = RationalFunction.make(delta, tau * beta)  # in D; _verified checks every entry
    # (u 0; 0 0) * T factors the swapped row (y/tau, x/tau; 0 0), where
    # T = (beta; x)(y x)/delta is idempotent: y*beta + x*x == delta.
    factors += _swap(_factor_zero_q(u.num, u.den) + [((beta, x), (y, x), delta)])
    return _shear(factors, -1) if shear else factors


def factor_small(p: DressElement, q: DressElement) -> Factorization:
    """Small-numerator factorizations: degrees <= 1, or quadratics sharing a root.

    Over the common denominator, numerators of degree <= 1 always satisfy a
    main-pipeline branch (a single root forces a definite sign, and common
    roots force proportionality).  Two degree-2 numerators with a nonconstant
    gcd are proportional or reach the common-root branch.  Both shapes
    share factor_row_matrix's body and its split; any other shape is rejected.
    """
    p, q = _elem(p), _elem(q)
    (x, y), gamma = over_common_denominator([p, q])
    cofactors = _gcd_cofactors(x, y) if x.degree == y.degree == 2 else None
    if (x.degree <= 1 and y.degree <= 1) or (cofactors and cofactors[0].degree >= 1):
        return _factor_row(p, q, x, y, gamma, cofactors)
    raise ShapeViolation(
        "factor_small needs numerators of degree <= 1, or degree-2 numerators "
        f"with a nonconstant gcd (got degrees {x.degree}, {y.degree})"
    )


def _factor_quadratics_sharing_root(
    x: Polynomial,
    gamma: Polynomial,
    m: Polynomial,
    x1: Polynomial,
    y1: Polynomial,
) -> list[_Factor]:
    """deg x = deg y = 2 with gcd M = X - rho: build one idempotent directly.

    x = M*x1 and y = M*y1, the cofactors x1, y1 linear and independent, and
    c = -lc(y1)/lc(x1) kills the linear term of c*x1 + y1, so c*x + y = s'M
    with s' a nonzero constant.  With delta = x + M + c0 root-free (see
    _grow_linear_to_gamma), the row (x/delta, s'M/delta; 0 0) is
    (1 0; 0 0) * e for the idempotent e = (M; (delta-x)/s')(x1 s')/delta,
    since x1*M + s'*(delta-x)/s' = delta.  Conjugating by the shear with
    parameter -c turns it into (x/delta, y/delta; 0 0), and the prefactor
    (delta/gamma 0; 0 0) restores the denominator.
    """
    c = -y1.leading_coefficient / x1.leading_coefficient
    s_prime = (x1.scale(c) + y1).coeffs[0]
    delta = _grow_linear_to_gamma(x, m)
    e = ((m, (delta - x).scale(1 / s_prime)), (x1, Polynomial.constant(s_prime)), delta)
    return _factor_zero_q(delta, gamma) + _shear([_E11, e], -c)


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
    return x + m + (1 if a > 0 else -1) * 2**k


@dataclass(frozen=True, slots=True)
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


@functools.cache
def _witness_sum_sq_unit() -> bool:
    """Whether a^2 + b^2 is a unit for the fixed pair a = X/(1+X^2), b = (X^2-1)/(1+X^2)."""
    a = DressElement.from_parts(Polynomial.x(), _GAMMA1)
    b = DressElement.from_parts(Polynomial.from_coeffs([-1, 0, 1]), _GAMMA1)
    return (a * a + b * b).is_unit()


def stable_range_witness(z: DressElement) -> StableRangeEvidence:
    """Evaluate the square-stable-range witness pair at z."""
    z = _elem(z)
    sum_sq_unit = _witness_sum_sq_unit()
    # z = f/d' with d' everywhere positive: every DressElement has a monic,
    # root-free denominator.  X^2 - 1 vanishes at +-1, so f1(+-1) = +-d'(+-1).
    d_pos = z.denominator
    v1 = d_pos.evaluate(1)
    v_minus = -d_pos.evaluate(-1)
    if not (v1 > 0 and v_minus < 0):
        raise CertificateError(f"witness values {format_fraction(v1)} at 1 and "
                               f"{format_fraction(v_minus)} at -1 must be + and -")
    return StableRangeEvidence(
        sum_sq_unit=sum_sq_unit,
        value_at_1=v1,
        value_at_minus_1=v_minus,
        sign_at_1="+",
        sign_at_minus_1="-",
        nonunit_certified=sum_sq_unit,
    )
