"""Finitely generated ideals of D: squaring, principality, explicit inverses.

One routine and one certificate serve every operation.  Over a common
denominator gamma the generators are a_i = M f_i'/gamma, with M the gcd of the
numerators f_i and s = max deg f_i'.  T = sum f_i'^2 is one integer
convolution over the lcm of the cofactors' denominators, with no Polynomial
product or sum.  It is certified on the unreduced numerators: no real roots,
deg T == 2s, read from the convolution's length, and sum f_i' f_i == M T, the
identity decided by integer values at one X = 2^k (polynomials._kronecker),
whose values of the f_i' also decide the root-freeness.  Then
J^2 = (M^2 T/gamma^2) D, which is sum a_i^2; (a, b) is principal iff s is even,
with generator M h/gamma for h = (1 + X^2)^(s/2); and (a, b)^-1 is generated
by the f_i' gamma/(M T).

A sum of real squares has degree exactly 2 max deg f_i', since the leading
coefficients of the top squares are positive.  So deg T == 2s holds iff s is
that maximum; with T root-free, this puts every quotient f_i'/h, h f_i'/T and
f_i' f_j'/T in D, and so covers divisibility and the unit check.

T is root-free iff gcd(f_i') is, and that gcd is 1 for the cofactors of M.
The identity's own values prove it first, and is_gamma decides gcd(f_i') only
when they prove nothing; no Sturm chain of T is built (see _sum_of_squares).

The generator M h/gamma and its coefficients h f'/T, h g'/T are reduced with no
gcd: gcd(f', T) = gcd(f', g'^2) = 1 as f', g' are the cofactors of M, and
gcd(M, gamma) = 1 for reduced inputs, so only powers of 1 + X^2 cancel, each
divided out in one synthetic-division pass over integers.  An unreduced input
(raw RationalFunction constructor) still gets an exact generator, which may
then be unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd as igcd, lcm
from typing import Optional, Sequence

from .dress import DressElement, _elem, over_common_denominator
from .errors import CertificateError, ShapeViolation
from .polynomials import (_ZERO, Polynomial, RationalFunction, _gamma1_product,
                          _gamma1_quotient, _gcd_cofactors, _kronecker, _make, poly_gcd)
from .realroots import is_gamma


@dataclass(frozen=True, slots=True)
class IdealGens:
    """A nonzero finitely generated ideal, given by its generators."""

    gens: tuple[DressElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(map(_elem, self.gens)))
        if not self.gens:
            raise ShapeViolation("an ideal needs at least one generator")
        if all(g.is_zero for g in self.gens):
            raise ShapeViolation("the zero ideal is not represented by IdealGens")

    @staticmethod
    def of(*gens: DressElement) -> "IdealGens":
        return IdealGens(tuple(gens))


def _numerator_data(gens: Sequence[DressElement]):
    """(M, cofactors, s, gamma, nums): gens[i] = nums[i]/gamma, nums[i] = M cofactors[i].

    M is the monic gcd of the numerators and s = max deg cofactors[i].  Each
    gcd brings its cofactors: two nonzero numerators take one gcd, whose
    cofactors are returned as they come, and any other list is folded by
    _gcd_fold.
    """
    nums, gamma = over_common_denominator(gens)
    if len(nums) == 2 and nums[0].ints and nums[1].ints:
        m, fp, gp = _gcd_cofactors(nums[0], nums[1])
        return m, (fp, gp), max(len(fp.ints), len(gp.ints)) - 1, gamma, nums
    m, cofactors = _gcd_fold(nums)
    s = max([len(f.ints) for f in cofactors]) - 1  # len(f.ints) - 1 == deg f for f != 0
    return m, cofactors, s, gamma, nums


def _gcd_fold(nums: Sequence[Polynomial]) -> tuple[Polynomial, list[Polynomial]]:
    """(M, cofactors) for the monic gcd M of nums: folding in f with
    g = gcd(M, f) scales the cofactors so far by M/g and appends f/g.  A zero
    numerator has cofactor 0."""
    m, cofactors = _ZERO, []
    for f in nums:
        if f.ints and m.ints:
            m, m_g, f = _gcd_cofactors(m, f)
            cofactors = [c * m_g for c in cofactors]
        elif f.ints:
            m, f = f.monic(), Polynomial.constant(f.leading_coefficient)
        cofactors.append(f)
    if not m.ints:
        raise ShapeViolation("the zero ideal has no principality data")
    return m, cofactors


def _sum_of_squares(m: Polynomial, cofactors, s: int, nums) -> Polynomial:
    """T = sum f_i'^2, certified with deg T == 2s, sum f_i' f_i == M T and no real root.

    T is one integer convolution: den^2 T = sum F_i^2 for the integer lists
    F_i = den f_i', den the lcm of the cofactors' denominators, with each
    F_i[j] F_i[l] added into entry j + l.  The top entry sums the squared
    leading coefficients of the longest F_i, so it is positive and the
    list's length is deg T + 1.

    T is root-free iff the gcd of the f_i' is: at a real x, T(x) is a sum of
    real squares, so T(x) = 0 iff every f_i'(x) = 0, that is iff x is a root
    of gcd(f_i').  The identity's values v_i = (D f_i')(xi) at
    _kronecker's xi = 2^k decide that gcd first (_values_coprime): if
    0 < gcd(v_i) <= xi/2, the f_i' are coprime, which they are as the
    cofactors of M.  The proof is _gcd_cofactors' (Cauchy's bound puts the
    roots of a common factor K below xi/2, so |K(xi)| > xi/2), and it needs
    xi >= 2 + 2|P| for a nonzero P = D f_j' (|.| the largest absolute
    coefficient).  _kronecker's point meets that: its product bound B has
    the factors len(nums) + 1 >= 2 and |P|_1 >= |P|, and xi > B >= 2|P|_1,
    so the even xi is at least 2|P|_1 + 2.  The test is one-sided: the
    values of coprime f_i' can share a chance factor above xi/2.  Only then
    does is_gamma decide gcd(f_i'), and no Sturm chain of T is built either
    way.
    """
    den = lcm(*[fp.denom for fp in cofactors])
    acc = [0] * (2 * max([len(fp.ints) for fp in cofactors]) - 1)
    for fp in cofactors:
        a = fp.ints if fp.denom == den else [den // fp.denom * c for c in fp.ints]
        for j, c in enumerate(a):
            if c:
                for i, d in enumerate(a, j):
                    acc[i] += c * d
    t = _make(acc, den * den)
    if len(t.ints) != 2 * s + 1:
        raise CertificateError(f"sum of squares T = {t} has degree {t.degree}, not 2s = {2 * s}")
    # nums are the numerators of the inputs themselves, not rebuilt as M f_i'.
    # Scaled by D^2, each side is a sum of products of two members of the
    # list: len(nums) + 1 products in all, decided at one X = 2^k.
    _, xi, at = _kronecker([*cofactors, *nums, m, t], len(nums) + 1)
    values = [at(fp) for fp in cofactors]
    if sum([v * at(f) for v, f in zip(values, nums)]) != at(m) * at(t):
        raise CertificateError(f"identity sum f_i' f_i == M T violated for M = {m}, T = {t}")
    if not (_values_coprime(values, xi) or is_gamma(reduce(poly_gcd, cofactors))):
        raise CertificateError(f"sum of squares T = {t} has real roots")
    return t


def _values_coprime(values: Sequence[int], xi: int) -> bool:
    """True when 0 < gcd(values) <= xi/2: for the v_i of _sum_of_squares, a
    proof that the f_i' are coprime (see there).  False proves nothing."""
    return 0 < igcd(*values) <= xi // 2


def ideal_square(J: IdealGens) -> DressElement:
    """A generator of J^2, which is always principal: J^2 = (M^2 T/gamma^2) D.

    M^2 T/gamma^2 is sum a_i^2, and each a_i a_j divided by it is
    f_i' f_j'/T, which lies in D by the certificate on T.
    """
    m, cofactors, s, gamma, nums = _numerator_data(J.gens)
    t = _sum_of_squares(m, cofactors, s, nums)
    return DressElement.from_parts(m * m * t, gamma * gamma)


@dataclass(frozen=True, slots=True)
class PrincipalityReport:
    """Outcome of the two-generator principality test.

    M is the monic gcd of the numerators over the common denominator, with
    f = M * fprime and g = M * gprime; s = max(deg fprime, deg gprime).  The
    ideal is principal iff s is even, and then ``generator`` divides both
    inputs and equals expansion[0] * a + expansion[1] * b exactly.
    """

    M: Polynomial
    fprime: Polynomial
    gprime: Polynomial
    s: int
    principal: bool
    generator: Optional[DressElement] = None
    expansion: Optional[tuple[DressElement, DressElement]] = None

    def __init__(self, M: Polynomial, fprime: Polynomial, gprime: Polynomial, s: int,
                 principal: bool, generator: Optional[DressElement] = None,
                 expansion: Optional[tuple[DressElement, DressElement]] = None):
        _set_M(self, M)
        _set_fprime(self, fprime)
        _set_gprime(self, gprime)
        _set_s(self, s)
        _set_principal(self, principal)
        _set_generator(self, generator)
        _set_expansion(self, expansion)


_set_M, _set_fprime, _set_gprime, _set_s, _set_principal, _set_generator, _set_expansion = (
    getattr(PrincipalityReport, f).__set__
    for f in ("M", "fprime", "gprime", "s", "principal", "generator", "expansion"))


def is_principal(a: DressElement, b: DressElement) -> bool:
    """True iff the ideal (a, b) is principal: s = max(deg f', deg g') is even."""
    a, b = _elem(a), _elem(b)
    return _numerator_data((a, b))[2] % 2 == 0


def _times_h_over(nums, den: Polynomial, k: int) -> list[RationalFunction]:
    """The fractions n h/den for h = (1 + X^2)^k and each n in nums, den made monic.

    (1 + X^2)^j is cancelled for the largest j <= k with (1 + X^2)^j | den.
    When each nonzero n is coprime to den, that power is gcd(n h, den) and
    the fractions are in lowest terms; otherwise they are exact but may be
    unreduced.  All of it runs on integer lists: each factor 1 + X^2 is
    tested and divided out of den's numerators in one synthetic-division
    pass (_gamma1_quotient), each of the e = k - j left is multiplied into n
    in one shift-and-add pass (_gamma1_product), and with c/d the quotient
    of den, n h/den = (n h d/lc)/(c/lc) is one _make each, monic with no
    Fraction.  A quotient that is already monic (lc = d) is canonical as it
    stands, and then with e = 0 each n is its own numerator.
    """
    c, d, j = den.ints, den.denom, 0
    while j < k and (q := _gamma1_quotient(c)) is not None:
        c, j = q, j + 1
    lc, e = c[-1], k - j
    if lc != d:
        den = _make(list(c), lc)
    elif j:
        den = Polynomial(tuple(c), d)
    out = []
    for n in nums:
        if not n:
            out.append(RationalFunction.zero())
        elif lc == d and not e:
            out.append(RationalFunction(n, den))
        else:
            ints = [v * d for v in n.ints]
            out.append(RationalFunction(_make(_gamma1_product(ints, e) if e else ints,
                                              n.denom * lc), den))
    return out


def principal_generator(a: DressElement, b: DressElement) -> PrincipalityReport:
    """Decide principality of (a, b); in the even case return a verified generator.

    The generator is M * h / gamma with h = (1 + X^2)^(s/2), the canonical
    root-free polynomial of degree s.  The unit u = T / h^2 with
    T = f'^2 + g'^2 gives expansion coefficients c1 = u^-1 f'/h = h f'/T and
    c2 = h g'/T.  Only the even case certifies T.  Its degree check
    deg T == 2s stands for two: deg f', deg g' <= s, so gen divides a and b
    (the quotients are f'/h and g'/h), and deg T = deg h^2, so u is a unit.
    Its identity f' f + g' g == M T is c1 * a + c2 * b = gen over the common
    denominator T * gamma.  No membership check is made.

    No gcd is taken either: gcd(f', T) = gcd(f', g'^2) = 1, as f' and g' are
    the cofactors of M, so gcd(h f', T) = gcd(h g', T) = (1 + X^2)^min(k, v(T))
    for k = s/2 and v the multiplicity of 1 + X^2.  For reduced inputs
    gcd(M, gamma) = 1, since the input that attains the full power of a factor
    of gamma has a numerator free of it, so gcd(M h, gamma) =
    (1 + X^2)^min(k, v(gamma)).  Only that power is cancelled.  An unreduced
    input (raw RationalFunction constructor) gets an exact generator that may
    be unreduced.
    """
    a, b = _elem(a), _elem(b)
    m, (fp, gp), s, gamma, nums = _numerator_data((a, b))
    if s % 2 == 1:
        return PrincipalityReport(m, fp, gp, s, False)
    t = _sum_of_squares(m, (fp, gp), s, nums)
    # c1 and c2 lie in D: T is root-free and deg(h f'), deg(h g') <= 2s = deg T.
    c1, c2 = _times_h_over((fp, gp), t, s // 2)
    # gen lies in D: the certified identity writes it as c1 * a + c2 * b.
    gen = _times_h_over((m,), gamma, s // 2)[0]
    certified = DressElement._certified
    return PrincipalityReport(m, fp, gp, s, True, certified(gen),
                              (certified(c1), certified(c2)))


@dataclass(frozen=True, slots=True)
class InverseIdeal:
    """Fractional inverse of (a, b) with its certificate.

    gens = (a/s, b/s) with s = a^2 + b^2 = M^2 T/gamma^2, that is
    f' gamma/(M T) and g' gamma/(M T); they live in the fraction field, not
    necessarily in D.  The contract (a, b) * gens = D follows from the one
    certificate on T that ideal_inverse checks: a * gens[0] + b * gens[1] =
    (f' f + g' g)/(M T) = 1, and each cross product a_i * gens[j] is
    f_i' f_j'/T, which lies in D since T is root-free with
    deg T = 2s >= deg f_i' f_j'.
    """

    gens: tuple[RationalFunction, RationalFunction]
    certificate: DressElement


def ideal_inverse(a: DressElement, b: DressElement) -> InverseIdeal:
    """Invert the fractional ideal (a, b) via the squaring identity."""
    a, b = _elem(a), _elem(b)
    if a.is_zero and b.is_zero:
        raise ShapeViolation("the zero ideal is not invertible")
    m, cofactors, s, gamma, nums = _numerator_data((a, b))
    mt = m * _sum_of_squares(m, cofactors, s, nums)
    gens = tuple(RationalFunction.make(fp * gamma, mt) for fp in cofactors)
    return InverseIdeal(gens=gens, certificate=DressElement.from_parts(m * mt, gamma * gamma))
