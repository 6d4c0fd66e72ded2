"""Exact computer algebra for the minimal Dress ring of R(X) over rational scalars.

The ring is the smallest subring of the rational-function field containing
every 1/(1 + x^2): exactly the fractions with root-free denominator and
degree <= 0.  The package provides membership and unit tests, ideal
arithmetic with explicit generators and certificates, factorization of
singular 2x2 row matrices into idempotent matrices with exact verification,
the number-theoretic analogues over Q and over truncated Laurent series, and
a CLI with machine-readable reports.
"""

__version__ = "0.1.0"

from .dress import (
    DressElement,
    NumeratorClassification,
    associates,
    classify_numerator,
    divides,
    is_member,
    is_unit,
)
from .errors import (
    CertificateError,
    CertificatePreconditionError,
    DressRingError,
    HypothesisNotMet,
    IndeterminateSeriesError,
    NotInDressRing,
    ParseError,
    ResourceLimitError,
    ShapeViolation,
    ZeroDenominatorError,
    ZeroPolynomialError,
)
from .idempotent import (
    Factorization,
    Mat2,
    PositivityCertificate,
    StableRangeEvidence,
    VerificationReport,
    conjugate_factorization,
    factor_row_matrix,
    factor_small,
    is_idempotent,
    positivity_certificate,
    stable_range_witness,
    swap_factorization,
    verify_factorization,
)
from .ideals import (
    IdealGens,
    InverseIdeal,
    PrincipalityReport,
    ideal_inverse,
    ideal_square,
    is_principal,
    principal_generator,
)
from .numberrings import SeriesBase, TruncLaurent, factorize, laurent_member, zs_gcd, zs_member
from .parsing import ParsedMatrix, parse_expression, parse_matrix, parse_scalar
from .polynomials import (
    NEG_INF,
    Polynomial,
    RationalFunction,
    divrem,
    poly_gcd,
    squarefree_part,
)
from .realroots import (
    IsolatingInterval,
    SignPattern,
    cauchy_bound,
    count_distinct_real_roots,
    is_gamma,
    is_gamma_plus,
    isolate_real_roots,
    sign_at_roots,
    sturm_count,
)
