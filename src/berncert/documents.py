"""Text document formats for polynomials and certificates.

Both formats are UTF-8 text with ``key: value`` header lines followed by
coefficient blocks; rationals are serialized as ``num/den`` strings in lowest
terms (or plain integers), so parse -> serialize -> parse is the identity and
certificates can be re-verified from the file alone.  Lines end where
``str.splitlines`` ends them; lines that are blank or start with ``#`` are
ignored.  Tokens follow the ASCII grammar ``-?[0-9]+(/[0-9]+)?`` with a
nonzero denominator; anything else, including an integer over the
interpreter's 4300-digit conversion limit, is a ``ParseError``, and a
number over that limit is not written: ``TooLargeError``.

A certificate is a stream of rows, written by one line writer (``_lines``,
of a ``CertificateRows`` or of a document) and read by one row reader
(``CertificateReader``); the str-in and str-out functions collect them.  A
row is formatted by one ``join`` (of ``str`` alone for a row whose
denominators are all 1) and parsed by ``split`` and ``int`` whenever that
gives what the grammar gives, else by the grammar itself.

Either document is read from its lines (``read_polynomial_document``,
``CertificateReader``): the str-in functions give them ``str.splitlines``
of the text, the command line the lines of a file decoded as they are
read.  An error raised by the lines themselves, such as a byte that is not
UTF-8, comes before any fault of the document.

A ``CertificateDocument`` holds the ``PositivityCertificate`` itself, built
from the ``C:`` tokens as written (integer numerators and denominators;
unreduced tokens are accepted), plus the two things only the file has: the
ordered ``report`` text and ``tool_version``.  The ``convention: plain``
header has one legal value, so it is written, required and checked, not
stored.  Entry n/d is written as ``n//g/d//g`` with g = gcd(n, d), the token
``str(Fraction(n, d))`` would give, without building the Fraction.  The
``report:`` text of a new certificate is its report object's own ``pairs``,
each value written by ``str``, so this module knows no certifier.
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
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import __version__
from .certificates import CertificateRows, Matrix, Method, PositivityCertificate
from .polys import BPoly, Record, UPoly
from .univariate import MAX_GRID_DEGREE

# ASCII digits only: \d and int() also take other Unicode digits, int() also
# underscores and a sign.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_COUNT_RE = re.compile(r"[0-9]+")


class ParseError(ValueError):
    """A document does not conform to the format."""


class TooLargeError(ValueError):
    """A number past the interpreter's digit limit for str(), which the
    writers refuse, as the readers refuse one with ParseError."""


def _int(digits: str, error: str) -> int:
    """int() of a numeral the grammar has matched, else ParseError(error):
    there int() raises ValueError only over the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(error) from exc


def _written(what: str, write, *args):
    """write(*args), the text of document numbers, else TooLargeError naming
    what the numbers are: there str() raises ValueError only over the
    interpreter's digit limit."""
    try:
        return write(*args)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise TooLargeError(f"{what} has over {limit} digits") from exc


def _parse_pair(token: str) -> tuple[int, int]:
    """Parse an integer or ``num/den`` token into (num, den), den > 0, as
    written; rejects anything else."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(f"malformed rational {token!r}")
    num, _, den = token.partition("/")
    error = f"rational token of {len(token)} characters is too long"
    pair = _int(num, error), _int(den, error) if den else 1
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
    return _int(value, error)


def _content_lines(lines: Iterable[str]) -> Iterator[str]:
    """The stripped lines that are neither blank nor ``#`` comments."""
    return (line for line in map(str.strip, lines) if line and not line.startswith("#"))


def _parse_tokens(line: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The numerators and the denominators of one matrix line, token by
    token by the grammar; raises the first bad token's ParseError."""
    nums, dens = zip(*map(_parse_pair, line.split()))
    return nums, dens


def _parse_row(line: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_parse_tokens`` of a matrix line, by ``split`` and ``int`` alone
    when that gives the same rows: on an ASCII line without ``+`` or ``_``,
    int() takes exactly ``-?[0-9]+`` under the digit limit, and a ``/``
    token needs both parts and den > 0 (not ``1/``, ``/2``, ``1/2/3``,
    ``1/0``, ``1/-2``).  Every other line takes the grammar's path."""
    if line.isascii() and "+" not in line and "_" not in line:
        try:
            if "/" not in line:
                nums = tuple(map(int, line.split()))
                return nums, (1,) * len(nums)
            parts = [token.partition("/") for token in line.split()]
            dens = tuple([int(d) if s else 1 for _, s, d in parts])
            if min(dens) > 0:
                return tuple([int(n) for n, _, _ in parts]), dens
        except ValueError:
            pass
    return _parse_tokens(line)


def _format_row(nums: Sequence[int], dens: Sequence[int]) -> str:
    """The line of a matrix row: entry n/d as ``n//g/d//g`` with
    g = gcd(n, d), or ``n//g`` when g = d, the token str(Fraction(n, d))
    would give, without building the Fraction.  A row whose denominators
    are all 1 is its numerators written by ``str`` alone, the twin of
    ``_parse_row``'s path for a line with no ``/``."""
    if max(dens, default=1) == 1:
        return " ".join(map(str, nums))
    return " ".join([
        str(n // g) if g == d else f"{n // g}/{d // g}"
        for n, d, g in zip(nums, dens, map(math.gcd, nums, dens))
    ])


def _parse_matrix_rows(lines: list[str]) -> tuple[Matrix, Matrix]:
    """The numerator and the denominator matrices of a coefficient block."""
    rows = [_parse_row(line) for line in lines]
    if not rows:
        raise ParseError("empty coefficient block")
    width = len(rows[0][0])
    if any(len(nums) != width for nums, _ in rows):
        raise ParseError("coefficient rows have inconsistent lengths")
    return tuple(nums for nums, _ in rows), tuple(dens for _, dens in rows)


class PolynomialDocument(Record):
    """Parsed polynomial file: variable count plus the coefficient matrix."""

    __slots__ = _fields = ("variables", "coeffs")

    def __post_init__(self):
        if self.variables not in (1, 2):
            raise ParseError(f"variables must be 1 or 2, got {self.variables}")
        if self.variables == 1 and len(self.coeffs) != 1:
            raise ParseError("a univariate document has exactly one coefficient row")

    def to_upoly(self) -> UPoly:
        if self.variables != 1:
            raise ParseError("document is not univariate")
        return UPoly(self.coeffs[0])

    def to_bpoly(self) -> BPoly:
        if self.variables != 2:
            raise ParseError("document is not bivariate")
        return BPoly(self.coeffs)


def read_polynomial_document(lines: Iterable[str]) -> PolynomialDocument:
    """The polynomial document of the given lines, every line read before
    any is parsed, so an error raised by the lines themselves comes first."""
    lines = list(_content_lines(lines))
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


def parse_polynomial_document(text: str) -> PolynomialDocument:
    return read_polynomial_document(text.splitlines())


def serialize_polynomial_document(doc: PolynomialDocument) -> str:
    """The document's text, its rows by ``_format_row`` as a certificate's
    are; a number past str()'s digit limit raises TooLargeError."""
    out = [f"variables: {doc.variables}", "coeffs:"]
    for row in doc.coeffs:
        nums, dens = [c.numerator for c in row], [c.denominator for c in row]
        out.append(_written("a polynomial coefficient", _format_row, nums, dens))
    return "\n".join(out) + "\n"


def _report_pairs(report) -> tuple[tuple[str, str], ...]:
    """The ``report:`` text of a certifier's report object, which gives its
    own keys and values (``pairs``); none for no report."""
    return () if report is None else tuple((key, str(value)) for key, value in report.pairs())


class CertificateDocument(Record):
    """A certificate file: the certificate, plus what only the file holds,
    the ordered ``report`` key/value text and the ``tool_version``.

    The certificate carries no report object, so two documents are equal
    when their certificates have equal values and their texts agree.
    """

    __slots__ = _fields = ("certificate", "report", "tool_version")

    @classmethod
    def from_certificate(cls, cert: PositivityCertificate) -> "CertificateDocument":
        bare = PositivityCertificate.from_integers(
            cert.q1, cert.q2, cert.numerators, cert.denominators, cert.method
        )
        report = _written("a certificate number", _report_pairs, cert.report)
        return cls(bare, report, __version__)

    def to_certificate(self) -> PositivityCertificate:
        return self.certificate


def _lines(method: Method, q1: int, q2: int, tool_version: str, rows, report) -> Iterator[str]:
    """The lines of a certificate document, with their newlines: one per
    (numerators, denominators) row of ``rows`` as it is read."""
    yield (
        f"method: {method.value}\nq1: {q1}\nq2: {q2}\nconvention: plain\n"
        f"tool_version: {tool_version}\nC:\n"
    )
    for nums, dens in rows:
        yield _written("a certificate number", _format_row, nums, dens) + "\n"
    if report:
        yield "report:\n" + "".join(f"{key}: {value}\n" for key, value in report)


def certificate_lines(cert: CertificateRows) -> Iterator[str]:
    """The document's lines, each row made as it is written.  A value past
    str()'s digit limit raises TooLargeError: in the report, on the call; in
    a row, when that row is reached."""
    report = _written("a certificate number", _report_pairs, cert.report)
    rows = ((nums, [cert.den] * len(nums)) for nums in cert.rows)
    return _lines(cert.method, cert.q1, cert.q2, __version__, rows, report)


def serialize_certificate_document(doc: CertificateDocument) -> str:
    cert = doc.certificate
    rows = zip(cert.numerators, cert.denominators)
    return "".join(_lines(cert.method, cert.q1, cert.q2, doc.tool_version, rows, doc.report))


def _key_value(line: str, kind: str = "") -> tuple[str, str]:
    """The stripped (key, value) of a ``key: value`` line."""
    if ":" not in line:
        raise ParseError(f"expected 'key: value' {kind}line, got {line!r}")
    key, value = line.split(":", 1)
    return key.strip(), value.strip()


class CertificateReader:
    """A certificate document read from its lines one at a time.

    The constructor reads the header; ``rows()`` yields each (numerators,
    denominators) row of the ``C:`` block as it is parsed, then reads the
    report.  A fault is raised only after the last line is read (an error
    raised by the lines themselves, such as a decoding error, comes first),
    the first in this order: header lines, no ``C:``, missing headers,
    ``q1``/``q2`` not integers or past ``MAX_GRID_DEGREE`` (from the
    constructor), the report, a bad row, no rows,
    ragged rows, method, convention, shape.
    Rows are yielded only while no fault is known and they fit q1 x q2.
    """

    def __init__(self, lines: Iterable[str]):
        self._lines = _content_lines(lines)
        headers: dict[str, str] = {}
        fault = None
        for line in self._lines:
            if line == "C:":
                break
            try:
                key, value = _key_value(line)
            except ParseError as exc:
                fault = fault or exc
                continue
            headers[key] = value
        else:
            raise fault or ParseError("expected a 'C:' section")
        try:
            if fault:
                raise fault
            for required in ("method", "q1", "q2", "convention", "tool_version"):
                if required not in headers:
                    raise ParseError(f"missing header {required!r}")
            self.q1 = _parse_count(headers["q1"], "q1 and q2 must be integers")
            self.q2 = _parse_count(headers["q2"], "q1 and q2 must be integers")
            if max(self.q1, self.q2) > MAX_GRID_DEGREE:
                raise ParseError(f"q1 and q2 must be at most {MAX_GRID_DEGREE}")
        except ParseError:
            self._drain()
            raise
        self.tool_version = headers["tool_version"]
        self.report: list[tuple[str, str]] = []
        self.method = next((m for m in Method if m.value == headers["method"]), None)
        self._late = None  # the method or convention fault, raised after the rows
        if self.method is None:
            self._late = ParseError(f"unknown method {headers['method']!r}")
        elif headers["convention"] != "plain":
            self._late = ParseError(f"unknown convention {headers['convention']!r}")

    def _drain(self) -> None:
        """Read the remaining lines: an error they raise themselves, such as
        a byte that is not UTF-8, comes before any fault of the document."""
        for _ in self._lines:
            pass

    def rows(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        fault, count, width, ragged = None, 0, None, False
        for line in self._lines:
            if line == "report:":
                break
            if fault:
                continue
            try:
                nums, dens = _parse_row(line)
            except ParseError as exc:
                fault = exc
                continue
            count += 1
            width = len(nums) if width is None else width
            ragged = ragged or len(nums) != width
            if not (self._late or ragged) and width == self.q2 + 1 and count <= self.q1 + 1:
                yield nums, dens
        try:
            for line in self._lines:
                self.report.append(_key_value(line, "report "))
        except ParseError as exc:
            fault = exc
            self._drain()
        if not fault and count == 0:
            fault = ParseError("empty coefficient block")
        if not fault and ragged:
            fault = ParseError("coefficient rows have inconsistent lengths")
        fault = fault or self._late
        if not fault and (count != self.q1 + 1 or width != self.q2 + 1):
            fault = ParseError(f"coefficient matrix must be {self.q1 + 1} x {self.q2 + 1}")
        if fault:
            raise fault


def parse_certificate_document(text: str) -> CertificateDocument:
    reader = CertificateReader(text.splitlines())
    rows = list(reader.rows())
    cert = PositivityCertificate.from_integers(
        reader.q1,
        reader.q2,
        [nums for nums, _ in rows],
        [dens for _, dens in rows],
        reader.method,
    )
    return CertificateDocument(cert, tuple(reader.report), reader.tool_version)
