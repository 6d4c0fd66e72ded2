"""Finitely generated ideals of D: squaring, principality, explicit inverses.

The squaring identity (a, b)^2 = (a^2 + b^2) D makes every 2-generated ideal
invertible.  For a pair f/gamma, g/gamma over a common denominator,
principality is decided by the parity of s = max(deg f', deg g') after
extracting the numerator gcd M; in the even case a generator M * h / gamma with
h = (1 + X^2)^(s/2) is produced together with expansion coefficients that
write it as an exact D-combination of the inputs.

Certificates are checked on the unreduced numerators, at the cost of the
maths: with S = f'^2 + g'^2 root-free, a quotient p/S or p/h lies in D iff
its degree is <= 0, and the expansion identity c1*a + c2*b = gen is the one
polynomial identity f' f + g' g = M S.  The squaring postcondition likewise
reduces to T = sum(f_i'^2) being root-free with deg T >= 2 max deg f_i'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dress import DressElement, is_member, over_common_denominator
from .errors import CertificateError, ShapeViolation
from .polynomials import (
    NEG_INF,
    Polynomial,
    RationalFunction,
    _exact_div,
    poly_gcd,
)
from .realroots import is_gamma


@dataclass(frozen=True)
class IdealGens:
    """A nonzero finitely generated ideal, given by its generators."""

    gens: tuple[DressElement, ...]

    def __post_init__(self):
        if not self.gens:
            raise ShapeViolation("an ideal needs at least one generator")
        if all(g.is_zero for g in self.gens):
            raise ShapeViolation("the zero ideal is not represented by IdealGens")

    @staticmethod
    def of(*gens: DressElement) -> "IdealGens":
        return IdealGens(tuple(gens))


def ideal_square(J: IdealGens) -> DressElement:
    """A generator s of J^2, which is always principal: J^2 = s D.

    J^2 is generated by the squares of the generators; over a common
    denominator, extracting the numerator gcd M leaves coprime numerators
    whose sum of squares has maximal degree (degrees of sums of squares add up
    to the maximum), so s = M^2 * T / gamma^2 with T = sum(f_i'^2) works.  The
    postcondition r_i r_j / s = f_i' f_j' / T in D is checked for all pairs at
    once: T has no real roots and deg T >= 2 * max(deg f_i').
    """
    nums, gamma = over_common_denominator(J.gens)
    nonzero = [f for f in nums if not f.is_zero]
    m = nonzero[0]
    for f in nonzero[1:]:
        m = poly_gcd(m, f)
    quotients = [_exact_div(f, m) for f in nums]
    total = Polynomial.zero()
    for q in quotients:
        total = total + q * q
    s = DressElement.from_parts(m * m * total, gamma * gamma)
    if not is_gamma(total) or 2 * max(q.degree for q in quotients) > total.degree:
        raise CertificateError(f"squaring postcondition violated for generator {s}")
    return s


@dataclass(frozen=True)
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


def _numerator_data(a: DressElement, b: DressElement):
    """(M, f', g', s, gamma, f, g) with a = f/gamma, b = g/gamma, f = M f', g = M g'."""
    if a.is_zero and b.is_zero:
        raise ShapeViolation("the zero ideal has no principality data")
    nums, gamma = over_common_denominator([a, b])
    f, g = nums
    m = poly_gcd(f, g)  # monic, and g.monic() when f = 0
    fp, gp = (_exact_div(f, m), _exact_div(g, m)) if m.degree >= 1 else (f, g)
    s = max(fp.degree, gp.degree)
    if s == NEG_INF:
        raise CertificateError(f"the numerator gcd {m} left no nonzero cofactor")
    return m, fp, gp, int(s), gamma, f, g


def is_principal(a: DressElement, b: DressElement) -> bool:
    """True iff the ideal (a, b) is principal: s = max(deg f', deg g') is even."""
    return _numerator_data(a, b)[3] % 2 == 0


def principal_generator(a: DressElement, b: DressElement) -> PrincipalityReport:
    """Decide principality of (a, b); in the even case return a verified generator.

    The generator is M * h / gamma with h = (1 + X^2)^(s/2), the canonical
    root-free polynomial of degree s.  The unit u = S / h^2 with
    S = f'^2 + g'^2 gives expansion coefficients c1 = u^-1 f'/h = h f'/S and
    c2 = h g'/S.  Before returning, the unreduced numerators are checked:
    S has no real roots; deg f', deg g' <= s, so gen divides a and b (the
    quotients are f'/h and g'/h); deg S = 2s, so u is a unit; and
    f' f + g' g = M S, which is c1 * a + c2 * b = gen over the common
    denominator S * gamma.
    """
    m, fp, gp, s, gamma, f, g = _numerator_data(a, b)
    if s % 2 == 1:
        return PrincipalityReport(M=m, fprime=fp, gprime=gp, s=s, principal=False)
    h = Polynomial.from_coeffs([1, 0, 1]) ** (s // 2)
    gen_value = RationalFunction.make(m * h, gamma)
    sum_sq = fp * fp + gp * gp
    if not is_gamma(sum_sq):
        raise CertificateError(f"f'^2 + g'^2 = {sum_sq} has real roots")
    # a/gen = f'/h and b/gen = g'/h (_exact_div checked f = M f', g = M g'), and h
    # is root-free, so both lie in D iff their degrees are <= 0.
    for p in (fp, gp):
        if p.degree > s:
            quotient = RationalFunction.make(p, h)
            raise CertificateError(f"generator {gen_value} does not divide the inputs: {quotient}")
    # S and h^2 are both root-free, so S/h^2 is a unit iff their degrees agree.
    if sum_sq.degree != 2 * s:
        u = RationalFunction.make(sum_sq, h * h)
        raise CertificateError(f"(f'^2 + g'^2)/h^2 = {u} is not a unit")
    # f and g are the numerators of a and b themselves, not rebuilt as M f'.
    if fp * f + gp * g != m * sum_sq:
        raise CertificateError(f"expansion identity violated for generator {gen_value}")
    # c1 and c2 lie in D: is_gamma(S) above, and deg(h f'), deg(h g') <= 2s = deg S
    # by the divisibility and unit degree checks.
    c1 = DressElement._certified(RationalFunction.make(h * fp, sum_sq))
    c2 = DressElement._certified(RationalFunction.make(h * gp, sum_sq))
    # gen lies in D: the expansion identity just checked writes it as c1 * a + c2 * b.
    gen = DressElement._certified(gen_value)
    return PrincipalityReport(
        M=m, fprime=fp, gprime=gp, s=s, principal=True, generator=gen, expansion=(c1, c2)
    )


@dataclass(frozen=True)
class InverseIdeal:
    """Fractional inverse of (a, b) with its certificate.

    gens = (a/s, b/s) with s = a^2 + b^2; the generators live in the fraction
    field, not necessarily in D.  The contract (a, b) * gens = D is witnessed
    by a * gens[0] + b * gens[1] = 1 and by the memberships of all four
    cross products, all verified at construction time by ideal_inverse.
    """

    gens: tuple[RationalFunction, RationalFunction]
    certificate: DressElement


def ideal_inverse(a: DressElement, b: DressElement) -> InverseIdeal:
    """Invert the fractional ideal (a, b) via the squaring identity."""
    if a.is_zero and b.is_zero:
        raise ShapeViolation("the zero ideal is not invertible")
    s = a * a + b * b
    inv1 = a.value / s.value
    inv2 = b.value / s.value
    witness = a.value * inv1 + b.value * inv2
    if witness != RationalFunction.one():
        raise CertificateError(f"inverse witness a*inv1 + b*inv2 = {witness}, not 1")
    for left in (a, b):
        for right in (inv1, inv2):
            if not is_member(left.value * right):
                raise CertificateError(f"cross product {left} * ({right}) is not in the ring")
    return InverseIdeal(gens=(inv1, inv2), certificate=s)
