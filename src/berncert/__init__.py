"""Exact positivity certificates for polynomials on the unit interval and box.

The package certifies strict positivity by constructing Bernstein
representations with strictly positive coefficients, in exact rational
arithmetic throughout, and computes certified enclosures of a polynomial's
minimum over the unit box.
"""

__version__ = "0.1.0"

from .certificates import (
    Method,
    PositivityCertificate,
    VerificationResult,
    expand_plain_2d,
    verify,
)
from .errors import (
    CertificationError,
    DegreeError,
    InconclusiveError,
    NotPositiveError,
)
from .nested import (
    NestedDegreeReport,
    certify_nested,
    coefficient_bernstein_polys,
    nested_q1,
    nested_q2,
)
from .polys import BPoly, UPoly, rat
from .raising import (
    BernsteinForm2D,
    MinEnclosure,
    RaiseReport,
    bern_coeffs,
    bernstein_approximation,
    certify_raise,
    delta,
    enclosure_bound,
    gamma_bounds,
    min_coeff,
    min_enclosure,
    minimum_lower_bound,
)
from .univariate import (
    BernsteinForm1D,
    RangeEnclosure1D,
    UnivariateCertificate,
    certify_positive_1d,
    elevate,
    from_bernstein,
    goursat,
    goursat_coefficients,
    powers_reznick_degree,
    range_enclosure_1d,
    to_bernstein_plain,
)

__all__ = [
    "BernsteinForm1D",
    "BernsteinForm2D",
    "BPoly",
    "CertificationError",
    "DegreeError",
    "InconclusiveError",
    "Method",
    "MinEnclosure",
    "NestedDegreeReport",
    "NotPositiveError",
    "PositivityCertificate",
    "RaiseReport",
    "RangeEnclosure1D",
    "UPoly",
    "UnivariateCertificate",
    "VerificationResult",
    "bern_coeffs",
    "bernstein_approximation",
    "certify_nested",
    "certify_positive_1d",
    "certify_raise",
    "coefficient_bernstein_polys",
    "delta",
    "elevate",
    "enclosure_bound",
    "expand_plain_2d",
    "from_bernstein",
    "gamma_bounds",
    "goursat",
    "goursat_coefficients",
    "min_coeff",
    "min_enclosure",
    "minimum_lower_bound",
    "nested_q1",
    "nested_q2",
    "powers_reznick_degree",
    "range_enclosure_1d",
    "rat",
    "to_bernstein_plain",
    "verify",
]
