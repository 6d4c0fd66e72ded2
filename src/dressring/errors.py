"""Exception types shared across the package."""


class DressRingError(Exception):
    """Base class for all library errors."""


class ZeroDenominatorError(DressRingError, ZeroDivisionError):
    """A rational function was built with, or reduced to, a zero denominator."""


class ZeroPolynomialError(DressRingError, ValueError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class NotInDressRing(DressRingError, ValueError):
    """A rational function failed a membership check for the ring.

    ``reason`` is one of ``"denominator-has-real-roots"`` or ``"positive-degree"``.
    """

    def __init__(self, value, reason: str):
        self.value = value
        self.reason = reason
        super().__init__(f"{value} is not in the ring: {reason}")


class CertificatePreconditionError(DressRingError, ValueError):
    """Inputs to the positivity certificate violate its hypotheses."""


class HypothesisNotMet(DressRingError, ValueError):
    """No factorization branch applies to the given row matrix.

    Carries the computed sign patterns and degree data so callers can report
    exactly which hypothesis failed, and the row itself as ``numerators``
    ``(x, y)`` over ``denominator`` gamma, so that p = x/gamma and q = y/gamma.
    """

    def __init__(self, message: str, *, sign_q_at_p=None, sign_p_at_q=None,
                 deg_p=None, deg_q=None, numerators=None, denominator=None):
        self.sign_q_at_p = sign_q_at_p
        self.sign_p_at_q = sign_p_at_q
        self.deg_p = deg_p
        self.deg_q = deg_q
        self.numerators = numerators
        self.denominator = denominator
        super().__init__(message)


class ShapeViolation(DressRingError, ValueError):
    """A matrix or generator list does not have the shape an operation requires."""


class IndeterminateSeriesError(DressRingError, ValueError):
    """A truncated series is zero to its precision but was not declared zero."""


class ResourceLimitError(DressRingError):
    """A computation ran past its work or size budget.

    Integer factoring for Z_S stops after the last row of its elliptic curve
    schedule; the message gives the input and that row.  The parser refuses a power or a product whose
    result would have more than parsing._MAX_BITS (2^22) bits, or one of
    whose polynomial products would multiply more than
    parsing._MAX_TERM_PAIRS (2^22) pairs of terms, estimated before it is
    built; the message gives
    the offset of the '^' or the operator.  The input may be valid; it is
    too costly.
    """


class CertificateError(DressRingError, RuntimeError):
    """A result failed its exact verification before being returned.

    The public factorization functions, the positivity certificate and the
    ideal computations check every result they return, with real code that
    survives ``python -O``.  A failure indicates an implementation bug, not
    bad input.
    """


class ParseError(DressRingError, ValueError):
    """Syntax error in the expression language. ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (offset {position})")
