"""Finitely generated ideals of D: squaring, principality, explicit inverses.

The squaring identity (a, b)^2 = (a^2 + b^2) D makes every 2-generated ideal
invertible.  For a pair f/gamma, g/gamma over a common denominator,
principality is decided by the parity of s = max(deg f', deg g') after
extracting the numerator gcd M; in the even case a generator M * h / gamma with
h = (1 + X^2)^(s/2) is produced together with expansion coefficients that
write it as an exact D-combination of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dress import DressElement, is_member, is_unit, over_common_denominator
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
    to the maximum), so s = M^2 * sum(f_i'^2) / gamma^2 works.  The
    postcondition r_i r_j / s in D is re-checked for every generator pair.
    """
    nums, gamma = over_common_denominator(J.gens)
    nonzero = [f for f in nums if not f.is_zero]
    m = nonzero[0]
    for f in nonzero[1:]:
        m = poly_gcd(m, f)
    total = Polynomial.zero()
    for f in nums:
        q = _exact_div(f, m)
        total = total + q * q
    s = DressElement.from_parts(m * m * total, gamma * gamma)
    for i, fi in enumerate(nums):
        for fj in nums[i:]:
            prod = RationalFunction.make(fi * fj, gamma * gamma)
            if not is_member(prod / s.value):
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
    if a.is_zero and b.is_zero:
        raise ShapeViolation("the zero ideal has no principality data")
    nums, gamma = over_common_denominator([a, b])
    f, g = nums
    m = poly_gcd(f, g)  # monic, and g.monic() when f = 0
    fp, gp = (_exact_div(f, m), _exact_div(g, m)) if m.degree >= 1 else (f, g)
    s = max(fp.degree, gp.degree)
    assert s != NEG_INF
    return m, fp, gp, int(s), gamma


def is_principal(a: DressElement, b: DressElement) -> bool:
    """True iff the ideal (a, b) is principal: s = max(deg f', deg g') is even."""
    _, _, _, s, _ = _numerator_data(a, b)
    return s % 2 == 0


def principal_generator(a: DressElement, b: DressElement) -> PrincipalityReport:
    """Decide principality of (a, b); in the even case return a verified generator.

    The generator is M * h / gamma with h = (1 + X^2)^(s/2), the canonical
    root-free polynomial of degree s.  The unit u = (f'^2 + g'^2) / h^2 gives
    expansion coefficients u^-1 f'/h and u^-1 g'/h, so that
    generator = expansion[0] * a + expansion[1] * b holds exactly; both
    divisibility checks and this identity are verified before returning.
    """
    m, fp, gp, s, gamma = _numerator_data(a, b)
    if s % 2 == 1:
        return PrincipalityReport(M=m, fprime=fp, gprime=gp, s=s, principal=False)
    h = Polynomial.from_coeffs([1, 0, 1]) ** (s // 2)
    gen = DressElement.from_parts(m * h, gamma)
    sum_sq = fp * fp + gp * gp
    if not is_gamma(sum_sq):
        raise CertificateError(f"f'^2 + g'^2 = {sum_sq} has real roots")
    u = RationalFunction.make(sum_sq, h * h)
    if not is_unit(u):
        raise CertificateError(f"(f'^2 + g'^2)/h^2 = {u} is not a unit")
    # u^-1 * f'/h = h f' / (f'^2 + g'^2), and likewise for g'.
    c1 = DressElement(RationalFunction.make(h * fp, sum_sq))
    c2 = DressElement(RationalFunction.make(h * gp, sum_sq))
    # gen divides a and b: the quotients are exactly f'/h and g'/h.
    for quotient in (RationalFunction.make(fp, h), RationalFunction.make(gp, h)):
        if not is_member(quotient):
            raise CertificateError(f"generator {gen} does not divide the inputs: {quotient}")
    if (c1 * a + c2 * b).value != gen.value:
        raise CertificateError(f"expansion identity violated for generator {gen}")
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
