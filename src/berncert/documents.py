"""Text document formats for polynomials and certificates.

Both formats are UTF-8 text with ``key: value`` header lines followed by
coefficient blocks; rationals are serialized as ``num/den`` strings in lowest
terms (or plain integers), so parse -> serialize -> parse is the identity and
certificates can be re-verified from the file alone.  Lines that are blank or
start with ``#`` are ignored.  Tokens follow the ASCII grammar
``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator; anything else, including
an integer over the interpreter's 4300-digit conversion limit, is a
``ParseError``.

A ``CertificateDocument`` holds the ``PositivityCertificate`` itself, built
from the ``C:`` tokens as written (integer numerators and denominators;
unreduced tokens are accepted), plus the two things only the file has: the
ordered ``report`` text and ``tool_version``.  The ``convention: plain``
header has one legal value, so it is written, required and checked, not
stored.  Entry n/d is written as ``n//g/d//g`` with g = gcd(n, d), the token
``str(Fraction(n, d))`` would give, without building the Fraction.
Polynomial documents hold Fractions.

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

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .certificates import Matrix, Method, PositivityCertificate
from .nested import NestedDegreeReport
from .polys import BPoly, UPoly
from .raising import RaiseReport

# ASCII digits only: \d and int() also take other Unicode digits, int() also
# underscores and a sign.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# A matrix line of such tokens whose denominators are nonzero; \s is the
# whitespace str.split() splits at.
_NONZERO_TOKEN = r"-?[0-9]+(?:/0*[1-9][0-9]*)?"
_ROW_RE = re.compile(rf"{_NONZERO_TOKEN}(?:\s+{_NONZERO_TOKEN})*")
_COUNT_RE = re.compile(r"[0-9]+")


class ParseError(ValueError):
    """A document does not conform to the format."""


def _parse_pair(token: str) -> tuple[int, int]:
    """Parse an integer or ``num/den`` token into (num, den), den > 0, as
    written; rejects anything else."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(f"malformed rational {token!r}")
    num, _, den = token.partition("/")
    try:  # int() raises ValueError only over the interpreter's digit limit
        pair = int(num), int(den) if den else 1
    except ValueError as exc:
        raise ParseError(f"rational token of {len(token)} characters is too long") from exc
    if pair[1] == 0:
        raise ParseError(f"zero denominator in {token!r}")
    return pair


def parse_rational(token: str) -> Fraction:
    """Parse an integer or ``num/den`` token; rejects anything else."""
    return Fraction(*_parse_pair(token))


def _parse_count(value: str, error: str) -> int:
    """Parse a nonnegative ASCII decimal header value, else ParseError(error)."""
    if not _COUNT_RE.fullmatch(value):
        raise ParseError(error)
    try:  # int() raises ValueError only over the interpreter's digit limit
        return int(value)
    except ValueError as exc:
        raise ParseError(error) from exc


def _format_pair(num: int, den: int) -> str:
    """The lowest-terms token of num/den, as str(Fraction(num, den)) writes it."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _parse_row(line: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The numerators and the denominators of one matrix line.  A line that
    fails the one-regex check, or holds an integer over the digit limit, is
    parsed token by token, which raises the first bad token's ParseError."""
    tokens = line.split()
    if _ROW_RE.fullmatch(line):
        parts = [t.partition("/") for t in tokens]
        try:
            return (
                tuple([int(n) for n, _, _ in parts]),
                tuple([int(d) if d else 1 for _, _, d in parts]),
            )
        except ValueError:  # int() over the interpreter's digit limit
            pass
    nums, dens = zip(*map(_parse_pair, tokens))
    return nums, dens


def _parse_matrix_rows(lines: list[str]) -> tuple[Matrix, Matrix]:
    """The numerator and the denominator matrices of a coefficient block."""
    rows = [_parse_row(line) for line in lines]
    if not rows:
        raise ParseError("empty coefficient block")
    width = len(rows[0][0])
    if any(len(nums) != width for nums, _ in rows):
        raise ParseError("coefficient rows have inconsistent lengths")
    return tuple(nums for nums, _ in rows), tuple(dens for _, dens in rows)


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
    variables = _parse_count(
        lines[0].split(":", 1)[1].strip(), "variables must be an integer"
    )
    if len(lines) < 2 or lines[1] != "coeffs:":
        raise ParseError("expected a 'coeffs:' line")
    nums, dens = _parse_matrix_rows(lines[2:])
    return PolynomialDocument(
        variables, tuple(tuple(map(Fraction, n, d)) for n, d in zip(nums, dens))
    )


def serialize_polynomial_document(doc: PolynomialDocument) -> str:
    out = [f"variables: {doc.variables}", "coeffs:"]
    for row in doc.coeffs:
        out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CertificateDocument:
    """A certificate file: the certificate, plus what only the file holds,
    the ordered ``report`` key/value text and the ``tool_version``.

    The certificate carries no report object, so two documents are equal
    when their certificates have equal values and their texts agree.
    """

    certificate: PositivityCertificate
    report: tuple[tuple[str, str], ...]
    tool_version: str

    @classmethod
    def from_certificate(cls, cert: PositivityCertificate) -> "CertificateDocument":
        r = cert.report
        pairs: tuple = ()
        if isinstance(r, RaiseReport):
            pairs = (
                ("doublings", r.doublings),
                ("c_min", r.enclosure.c_min),
                ("bound", r.enclosure.bound),
                ("gamma1", r.gamma1),
                ("gamma2", r.gamma2),
            )
        elif isinstance(r, NestedDegreeReport):
            pairs = (("lambda_lower", r.lambda_lower), ("l_upper", r.l_upper))
        bare = PositivityCertificate.from_integers(
            cert.q1, cert.q2, cert.numerators, cert.denominators, cert.method
        )
        return cls(bare, tuple((key, str(value)) for key, value in pairs), __version__)

    def to_certificate(self) -> PositivityCertificate:
        return self.certificate


def _key_values(lines: list[str], kind: str = "") -> list[tuple[str, str]]:
    """The stripped (key, value) of each ``key: value`` line."""
    pairs = []
    for line in lines:
        if ":" not in line:
            raise ParseError(f"expected 'key: value' {kind}line, got {line!r}")
        key, value = line.split(":", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_certificate_document(text: str) -> CertificateDocument:
    lines = _content_lines(text)
    c_at = lines.index("C:") if "C:" in lines else len(lines)
    headers = dict(_key_values(lines[:c_at]))
    if c_at == len(lines):
        raise ParseError("expected a 'C:' section")
    for required in ("method", "q1", "q2", "convention", "tool_version"):
        if required not in headers:
            raise ParseError(f"missing header {required!r}")
    q1 = _parse_count(headers["q1"], "q1 and q2 must be integers")
    q2 = _parse_count(headers["q2"], "q1 and q2 must be integers")
    body = lines[c_at + 1:]
    r_at = body.index("report:") if "report:" in body else len(body)
    report = tuple(_key_values(body[r_at + 1:], "report "))
    numerators, denominators = _parse_matrix_rows(body[:r_at])
    try:
        method = Method(headers["method"])
    except ValueError:
        raise ParseError(f"unknown method {headers['method']!r}") from None
    if headers["convention"] != "plain":
        raise ParseError(f"unknown convention {headers['convention']!r}")
    if len(numerators) != q1 + 1 or len(numerators[0]) != q2 + 1:
        raise ParseError(f"coefficient matrix must be {q1 + 1} x {q2 + 1}")
    cert = PositivityCertificate.from_integers(q1, q2, numerators, denominators, method)
    return CertificateDocument(cert, report, headers["tool_version"])


def serialize_certificate_document(doc: CertificateDocument) -> str:
    cert = doc.certificate
    out = [
        f"method: {cert.method.value}",
        f"q1: {cert.q1}",
        f"q2: {cert.q2}",
        "convention: plain",
        f"tool_version: {doc.tool_version}",
        "C:",
    ]
    for nums, dens in zip(cert.numerators, cert.denominators):
        out.append(" ".join(map(_format_pair, nums, dens)))
    if doc.report:
        out.append("report:")
        for key, value in doc.report:
            out.append(f"{key}: {value}")
    return "\n".join(out) + "\n"
