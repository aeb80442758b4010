"""Text document formats for polynomials and certificates.

Both formats are UTF-8 text with ``key: value`` header lines followed by
coefficient blocks; rationals are serialized as ``num/den`` strings in lowest
terms (or plain integers), so parse -> serialize -> parse is the identity and
certificates can be re-verified from the file alone.  Lines that are blank or
start with ``#`` are ignored.

Polynomial document::

    variables: 2
    coeffs:
    1/8 0 1
    0 -2 0
    1 0 0

Row i of the matrix holds the coefficients of x1**i by increasing power of
x2; with ``variables: 1`` there is exactly one row, indexed by the power of x.

Certificate document::

    method: raise
    q1: 2
    q2: 2
    convention: plain
    tool_version: 0.1.0
    C:
    <q1+1 rows of q2+1 entries>
    report:
    c_min: 1
    bound: 0

The ``report:`` section is optional free-form ``key: value`` metadata.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .certificates import Method, PositivityCertificate
from .nested import NestedDegreeReport
from .polys import BPoly, UPoly
from .raising import RaiseReport

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


class ParseError(ValueError):
    """A document does not conform to the format."""


def parse_rational(token: str) -> Fraction:
    """Parse an integer or ``num/den`` token; rejects anything else."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(f"malformed rational {token!r}")
    try:  # int() raises ValueError only over the interpreter's digit limit
        if "/" not in token:
            return Fraction(int(token))
        num, den = token.split("/")
        num, den = int(num), int(den)
    except ValueError as exc:
        raise ParseError(f"rational token of {len(token)} characters is too long") from exc
    if den == 0:
        raise ParseError(f"zero denominator in {token!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    return str(value)


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _parse_matrix_rows(lines: list[str]) -> tuple[tuple[Fraction, ...], ...]:
    rows = [tuple(parse_rational(tok) for tok in line.split()) for line in lines]
    if not rows:
        raise ParseError("empty coefficient block")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("coefficient rows have inconsistent lengths")
    return tuple(rows)


@dataclass(frozen=True)
class PolynomialDocument:
    """Parsed polynomial file: variable count plus the coefficient matrix."""

    variables: int
    coeffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.variables not in (1, 2):
            raise ParseError(f"variables must be 1 or 2, got {self.variables}")
        if self.variables == 1 and len(self.coeffs) != 1:
            raise ParseError("a univariate document has exactly one coefficient row")

    @classmethod
    def from_upoly(cls, p: UPoly) -> "PolynomialDocument":
        return cls(1, (p.coeffs,))

    @classmethod
    def from_bpoly(cls, p: BPoly) -> "PolynomialDocument":
        return cls(2, p.coeffs)

    def to_upoly(self) -> UPoly:
        if self.variables != 1:
            raise ParseError("document is not univariate")
        return UPoly(self.coeffs[0])

    def to_bpoly(self) -> BPoly:
        if self.variables != 2:
            raise ParseError("document is not bivariate")
        return BPoly(self.coeffs)


def parse_polynomial_document(text: str) -> PolynomialDocument:
    lines = _content_lines(text)
    if not lines or not lines[0].startswith("variables:"):
        raise ParseError("expected a 'variables:' header line")
    try:
        variables = int(lines[0].split(":", 1)[1].strip())
    except ValueError as exc:
        raise ParseError("variables must be an integer") from exc
    if len(lines) < 2 or lines[1] != "coeffs:":
        raise ParseError("expected a 'coeffs:' line")
    return PolynomialDocument(variables, _parse_matrix_rows(lines[2:]))


def serialize_polynomial_document(doc: PolynomialDocument) -> str:
    out = [f"variables: {doc.variables}", "coeffs:"]
    for row in doc.coeffs:
        out.append(" ".join(format_rational(c) for c in row))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CertificateDocument:
    """Parsed certificate file; ``report`` is ordered key/value metadata."""

    method: str
    q1: int
    q2: int
    convention: str
    c: tuple[tuple[Fraction, ...], ...]
    report: tuple[tuple[str, str], ...]
    tool_version: str

    def __post_init__(self):
        if self.method not in ("nested", "raise"):
            raise ParseError(f"unknown method {self.method!r}")
        if self.convention != "plain":
            raise ParseError(f"unknown convention {self.convention!r}")
        if len(self.c) != self.q1 + 1 or any(len(r) != self.q2 + 1 for r in self.c):
            raise ParseError(
                f"coefficient matrix must be {self.q1 + 1} x {self.q2 + 1}"
            )

    @classmethod
    def from_certificate(cls, cert: PositivityCertificate) -> "CertificateDocument":
        report: tuple[tuple[str, str], ...] = ()
        if isinstance(cert.report, RaiseReport):
            r = cert.report
            report = (
                ("doublings", str(r.doublings)),
                ("c_min", format_rational(r.enclosure.c_min)),
                ("bound", format_rational(r.enclosure.bound)),
                ("gamma1", format_rational(r.gamma1)),
                ("gamma2", format_rational(r.gamma2)),
            )
        elif isinstance(cert.report, NestedDegreeReport):
            r = cert.report
            report = (
                ("lambda_lower", format_rational(r.lambda_lower)),
                ("l_upper", format_rational(r.l_upper)),
            )
        return cls(
            method=cert.method.value,
            q1=cert.q1,
            q2=cert.q2,
            convention="plain",
            c=cert.coefficients,
            report=report,
            tool_version=__version__,
        )

    def to_certificate(self) -> PositivityCertificate:
        return PositivityCertificate(
            self.q1, self.q2, self.c, Method(self.method), report=None
        )


def parse_certificate_document(text: str) -> CertificateDocument:
    lines = _content_lines(text)
    headers: dict[str, str] = {}
    idx = 0
    while idx < len(lines) and lines[idx] != "C:":
        line = lines[idx]
        if ":" not in line:
            raise ParseError(f"expected 'key: value' line, got {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip()] = value.strip()
        idx += 1
    if idx == len(lines):
        raise ParseError("expected a 'C:' section")
    for required in ("method", "q1", "q2", "convention", "tool_version"):
        if required not in headers:
            raise ParseError(f"missing header {required!r}")
    try:
        q1 = int(headers["q1"])
        q2 = int(headers["q2"])
    except ValueError as exc:
        raise ParseError("q1 and q2 must be integers") from exc
    idx += 1
    matrix_lines = []
    while idx < len(lines) and lines[idx] != "report:":
        matrix_lines.append(lines[idx])
        idx += 1
    report = []
    if idx < len(lines):
        idx += 1
        while idx < len(lines):
            line = lines[idx]
            if ":" not in line:
                raise ParseError(f"expected 'key: value' report line, got {line!r}")
            key, value = line.split(":", 1)
            report.append((key.strip(), value.strip()))
            idx += 1
    return CertificateDocument(
        method=headers["method"],
        q1=q1,
        q2=q2,
        convention=headers["convention"],
        c=_parse_matrix_rows(matrix_lines),
        report=tuple(report),
        tool_version=headers["tool_version"],
    )


def serialize_certificate_document(doc: CertificateDocument) -> str:
    out = [
        f"method: {doc.method}",
        f"q1: {doc.q1}",
        f"q2: {doc.q2}",
        f"convention: {doc.convention}",
        f"tool_version: {doc.tool_version}",
        "C:",
    ]
    for row in doc.c:
        out.append(" ".join(format_rational(c) for c in row))
    if doc.report:
        out.append("report:")
        for key, value in doc.report:
            out.append(f"{key}: {value}")
    return "\n".join(out) + "\n"
