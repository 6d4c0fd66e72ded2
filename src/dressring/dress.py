"""Membership, units, divisibility and numerator classification for the ring D.

D is the subring of the rational-function field generated by all 1/(1 + x^2):
exactly the fractions f/g whose reduced denominator has no real roots and
whose degree is <= 0.  Membership is decided on the reduced form; this is
sound because a common factor of any root-free-denominator presentation is
itself root-free and cancelling it drops both degrees equally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateError, NotInDressRing, ZeroPolynomialError
from .polynomials import (
    _ONE,
    Degree,
    Polynomial,
    RationalFunction,
    _coerce_rf,
    _cofactor,
    _gcd_cofactors,
    squarefree_decomposition,
)
from .realroots import is_gamma, isolate_real_roots


def is_member(r: RationalFunction) -> bool:
    """True iff r lies in D: root-free reduced denominator and degree <= 0."""
    return r.degree <= 0 and membership_failure(r) is None


def membership_failure(r: RationalFunction) -> Optional[str]:
    """None when r is a member, else which condition failed.

    A zero denominator, which is not root-free, fails whatever the numerator.
    """
    if r.is_zero and r.den:
        return None
    if not is_gamma(r.den):
        return "denominator-has-real-roots"
    if r.degree > 0:
        return "positive-degree"
    return None


def is_unit(r: RationalFunction) -> bool:
    """True iff r is invertible in D: numerator and denominator root-free of equal degree."""
    return r.degree == 0 and is_gamma(r.den) and is_gamma(r.num)


@dataclass(frozen=True, slots=True)
class DressElement:
    """A rational function certified to lie in D, over a monic (so positive) denominator.

    Construction is checked, never trusted: a failed check raises
    :class:`NotInDressRing` carrying the violated condition.  A raw value with
    a non-monic denominator is first put in ``RationalFunction.make`` form; a
    monic one, reduced or not, is kept.  Values are frozen and slotted; all
    arithmetic is pure and re-certifies its result.  Only the private
    ``_certified`` skips both steps, for monic values whose membership the
    caller has proved.
    """

    value: RationalFunction

    def __post_init__(self):
        den = self.value.den
        if den.ints and den.ints[-1] != den.denom:
            object.__setattr__(self, "value", RationalFunction.make(self.value.num, den))
        reason = membership_failure(self.value)
        if reason is not None:
            raise NotInDressRing(self.value, reason)

    @staticmethod
    def from_parts(num: Polynomial, den: Polynomial) -> "DressElement":
        return DressElement(RationalFunction.make(num, den))

    @classmethod
    def _certified(cls, value: RationalFunction) -> "DressElement":
        """Wrap a value whose membership the caller has just certified; no re-check."""
        elem = object.__new__(cls)
        _set_value(elem, value)
        return elem

    @staticmethod
    def from_rational(c) -> "DressElement":
        return DressElement(RationalFunction.from_rational(c))

    @staticmethod
    def zero() -> "DressElement":
        return DressElement(RationalFunction.zero())

    @staticmethod
    def one() -> "DressElement":
        return DressElement(RationalFunction.one())

    @property
    def numerator(self) -> Polynomial:
        return self.value.num

    @property
    def denominator(self) -> Polynomial:
        return self.value.den

    @property
    def degree(self) -> Degree:
        return self.value.degree

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def is_unit(self) -> bool:
        return is_unit(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other) -> "DressElement":
        return DressElement(self.value + _val(other))

    __radd__ = __add__

    def __neg__(self) -> "DressElement":
        return DressElement(-self.value)

    def __sub__(self, other) -> "DressElement":
        return DressElement(self.value - _val(other))

    def __rsub__(self, other) -> "DressElement":
        return DressElement(_val(other) - self.value)

    def __mul__(self, other) -> "DressElement":
        return DressElement(self.value * _val(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DressElement":
        return DressElement(self.value**n)

    def inverse(self) -> "DressElement":
        """1 / self; raises NotInDressRing unless self is a unit."""
        return DressElement(RationalFunction.one() / self.value)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"DressElement({self.value})"


_set_value = DressElement.value.__set__


def _val(x) -> RationalFunction:
    if isinstance(x, DressElement):
        return x.value
    if isinstance(x, (RationalFunction, Polynomial, int, Fraction)):
        return _coerce_rf(x)
    raise TypeError(f"cannot use {type(x).__name__} as an element of D")


def _elem(x) -> DressElement:
    """x as an element of D: a DressElement as it is, and a rational number,
    Polynomial or RationalFunction through the checked constructor, which
    raises NotInDressRing outside D; TypeError for any other type."""
    return x if type(x) is DressElement else DressElement(_val(x))


def over_common_denominator(
    elems: Sequence[DressElement],
) -> tuple[list[Polynomial], Polynomial]:
    """Rewrite the elements as numerators over the lcm gamma of their denominators.

    One gcd g = gcd(gamma, d) folds in each new denominator d, and its
    cofactors do the rest: gamma becomes gamma (d/g), the numerators so far
    are scaled by d/g and the new one by gamma/g.  A denominator 1, which
    every zero element has, leaves gamma as it is.
    """
    value = elems[0].value
    gamma, nums = value.den, [value.num]
    for e in elems[1:]:
        value = e.value
        num, d = value.num, value.den
        # Field by field: the dataclass __eq__ costs about 4x as much.
        if d.ints != gamma.ints or d.denom != gamma.denom:
            _, gamma_g, d_g = _gcd_cofactors(gamma, d)
            if d_g != _ONE:
                gamma, nums = gamma * d_g, [n * d_g for n in nums]
            num = num * gamma_g
        nums.append(num)
    return nums, gamma


def divides(a: DressElement, b: DressElement) -> bool:
    """True iff b/a stays in D.  Everything divides zero; a must be nonzero."""
    a, b = _elem(a), _elem(b)
    if a.is_zero:
        raise ZeroPolynomialError("division by the zero element")
    return is_member(b.value / a.value)


def associates(a: DressElement, b: DressElement) -> bool:
    """True iff a and b generate the same principal ideal (ratio a unit, or both zero)."""
    a, b = _elem(a), _elem(b)
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return is_unit(a.value / b.value)


@dataclass(frozen=True, slots=True)
class NumeratorClassification:
    """Square-free content of a reduced numerator, sorted by real-root behaviour.

    Each entry is a (monic factor, multiplicity) pair certified by real-root
    isolation: real_rooted factors have as many distinct real roots as their
    degree, root_free factors have none, mixed factors are strictly in
    between.  ``constant`` is the leading scalar, so that
    constant * prod(factor ** multiplicity) reproduces the numerator exactly.

    Root-free factors may legally be moved into the unit part by a caller.
    Beyond linear factors at rational roots no irreducible factorization is
    attempted, so a listed factor need not be irreducible over Q.
    """

    constant: Fraction
    real_rooted: tuple[tuple[Polynomial, int], ...] = field(default=())
    root_free: tuple[tuple[Polynomial, int], ...] = field(default=())
    mixed: tuple[tuple[Polynomial, int], ...] = field(default=())

    def reassemble(self) -> Polynomial:
        p = Polynomial.constant(self.constant)
        for factor, mult in self.real_rooted + self.root_free + self.mixed:
            p = p * factor**mult
        return p


def classify_numerator(a: DressElement) -> NumeratorClassification:
    """Classify the square-free factors of a's reduced numerator by root type.

    One isolation per factor: exact roots split off as linear factors, and the
    other intervals count the (irrational) real roots of the cofactor.
    """
    a = _elem(a)
    if a.is_zero:
        raise ZeroPolynomialError("cannot classify the zero element")
    num = a.numerator
    constant = num.leading_coefficient
    real_rooted: list[tuple[Polynomial, int]] = []
    root_free: list[tuple[Polynomial, int]] = []
    mixed: list[tuple[Polynomial, int]] = []
    for s, mult in squarefree_decomposition(num):
        n_real = 0
        for iv in isolate_real_roots(s):
            if not iv.is_exact:
                n_real += 1
                continue
            r = iv.exact
            lin = Polynomial.from_coeffs([-r, 1])
            real_rooted.append((lin, mult))
            # For r = n/d, s/(X - r) is s/(H/lc H) with H = d X - n primitive.
            if not (q := _cofactor(s, (-r.numerator, r.denominator))):
                raise CertificateError(f"{lin} does not divide {s}")
            s = q
        if s.degree >= 1:
            if n_real == 0:
                root_free.append((s, mult))
            elif n_real == s.degree:
                real_rooted.append((s, mult))
            else:
                mixed.append((s, mult))
    return NumeratorClassification(
        constant=constant,
        real_rooted=tuple(real_rooted),
        root_free=tuple(root_free),
        mixed=tuple(mixed),
    )
