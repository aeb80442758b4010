"""Plain bivariate Bernstein positivity certificates and their verification.

A certificate for p consists of degrees (q1, q2) and a strictly positive
matrix C with

    p(x1, x2) = sum_{i,j} C[i][j] * x1**i (1-x1)**(q1-i) * x2**j (1-x2)**(q2-j).

For q1 >= n1 and q2 >= n2 the products above form a basis of the
polynomials of bidegree at most (q1, q2), so that matrix is unique: it is
``plain_coeffs(p, q1, q2)``, integer numerators N over one denominator D,
made one row at a time by the forward kernel ``univariate._plain``
along x1 (``_plain_pass``), then x2 (``_plain_rows``): ``plain_rows``.  A
certificate holds C as integer numerators over integer denominators: the
certifiers store (N, D) as ``plain_rows`` gave them, a parsed document
its tokens as written, and ``coefficients`` is the Fraction matrix they give.
``CertificateRows`` is a certificate before its matrix is held, the rows
still to be read, which the CLI writes as they are made; it checks each row
strictly positive as the row is read, whichever method made it, and a
nonpositive entry is a ``CertificationError`` (the method's degrees were
too low), raised before that row is written or collected.

Verification is a pure function of the certificate and the polynomial that
does not trust the producer, and it reads the certificate as a stream of
rows (``verify_rows``), each once, from a certificate or straight from a
file: one ``min`` per row for the sign of its numerators (denominators are
positive), and one comparison with the next row of p's plain matrix cut to
degrees (q1, q2), made up to the first mismatch, which also names the first
monomial where C's expansion differs from p.  A file's reader compares each
line with the writer's text of that row and parses only a line that differs,
which alone gets the cross-multiplied comparison.  C is never expanded;
``expand_plain_2d`` is the inverse map.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Optional

from .errors import CertificationError, DegreeError
from .polys import BPoly, Record, rat, rat_text
from .univariate import _plain_kernel, _plain_pass, _plain_rows


class Method(Enum):
    NESTED = "nested"
    RAISE = "raise"


Matrix = tuple[tuple[int, ...], ...]


class PositivityCertificate(Record):
    """Degrees plus a strictly positive plain Bernstein coefficient matrix.

    Entry C[i][j] is numerators[i][j] / denominators[i][j], integers with
    positive denominators, not necessarily in lowest terms: the certifiers
    store the kernel's numerators over its one denominator, and a parsed
    document stores its tokens as written.  ``coefficients`` is the same
    matrix as Fractions.  Equality compares values, not representations.
    """

    __slots__ = _fields = ("q1", "q2", "numerators", "denominators", "method", "report")

    def __init__(self, q1: int, q2: int, coefficients, method: Method, report=None):
        """Certificate from rows of rationals (Fraction, int or str)."""
        rows = [list(map(rat, row)) for row in coefficients]
        super().__init__(
            q1,
            q2,
            tuple(tuple(c.numerator for c in row) for row in rows),
            tuple(tuple(c.denominator for c in row) for row in rows),
            method,
            report,
        )

    @classmethod
    def from_integers(
        cls, q1: int, q2: int, numerators, denominators, method: Method, report=None
    ) -> "PositivityCertificate":
        """Certificate from integer numerators over integer denominators.

        ``denominators`` is a matrix of the numerators' shape, or one int
        shared by every entry, as ``plain_coeffs`` gives it.
        """
        if isinstance(denominators, int):
            denominators = ((denominators,) * (q2 + 1),) * (q1 + 1)
        cert = object.__new__(cls)
        Record.__init__(
            cert, q1, q2, tuple(map(tuple, numerators)), tuple(map(tuple, denominators)),
            method, report,
        )
        return cert

    def __post_init__(self) -> None:
        for matrix in (self.numerators, self.denominators):
            if len(matrix) != self.q1 + 1:
                raise ValueError(f"expected {self.q1 + 1} rows, got {len(matrix)}")
            for row in matrix:
                if len(row) != self.q2 + 1:
                    raise ValueError(f"expected {self.q2 + 1} columns, got {len(row)}")
        if min(map(min, self.denominators)) <= 0:
            raise ValueError("denominators must be positive")

    @property
    def coefficients(self) -> tuple[tuple[Fraction, ...], ...]:
        """C as Fractions."""
        return tuple(
            tuple(map(Fraction, nrow, drow))
            for nrow, drow in zip(self.numerators, self.denominators)
        )

    def __eq__(self, other):
        if not isinstance(other, PositivityCertificate):
            return NotImplemented
        # Equal degrees mean equal shapes, which __post_init__ checked.
        rows = zip(self.numerators, self.denominators, other.numerators, other.denominators)
        return (self.q1, self.q2, self.method, self.report) == (
            other.q1, other.q2, other.method, other.report
        ) and all(n * e == m * d for row in rows for n, d, m, e in zip(*row))

    def __hash__(self):
        return hash((self.q1, self.q2, self.method))


class VerificationResult(Record):
    """Outcome of a certificate check; falsy when invalid, with reasons."""

    __slots__ = _fields = ("ok", "reasons")

    def __bool__(self) -> bool:
        return self.ok

    @property
    def reason(self) -> Optional[str]:
        return "; ".join(self.reasons) if self.reasons else None


def expand_plain_2d(
    coefficients: tuple[tuple[Fraction, ...], ...], q1: int, q2: int
) -> BPoly:
    """Monomial form of sum_{i,j} C[i][j] x1**i (1-x1)**(q1-i) x2**j (1-x2)**(q2-j).

    The inverse of ``plain_coeffs``: the inverse kernel along x2 over the
    rows of C, then along x1 over the columns of that result, on integers
    over C's common denominator.  The result is exact.
    """
    rows, den = _plain_kernel(coefficients, q2)
    cols, _ = _plain_kernel(list(zip(*rows)), q1)
    return BPoly([[Fraction(v, den) for v in row] for row in zip(*cols)])


def plain_rows(p: BPoly, q1: int, q2: int) -> tuple[Iterator[list[int]], int]:
    """The rows of ``plain_coeffs(p, q1, q2)`` one at a time, with D.

    Each row is made when it is asked for: ``_plain_pass`` over the columns
    of p (the x1 pass, whose rows are the coefficient polynomials A_k(x2)
    scaled by D), then ``_plain_rows`` over its rows (the x2 pass).
    Requires q1 >= n1 and q2 >= n2, checked on the call.
    """
    n1, n2 = p.n1, p.n2
    if q1 < n1 or q2 < n2:
        raise DegreeError(
            f"degrees ({q1}, {q2}) are below polynomial degrees ({n1}, {n2})"
        )
    x1_rows, den = _plain_pass(list(zip(*p.coeffs)), q1)
    return _plain_rows(x1_rows, q2), den


def plain_coeffs(p: BPoly, q1: int, q2: int) -> tuple[list[list[int]], int]:
    """Plain Bernstein coefficients of p at degrees (q1, q2), as integers:
    (N, D) with plain[k][l] = N[k][l] / D, the rows of ``plain_rows``."""
    rows, den = plain_rows(p, q1, q2)
    return list(rows), den


class CertificateRows:
    """A certificate whose matrix is not held: its degrees, method and
    report, and its numerator rows over the one denominator ``den``, made as
    they are read and each checked strictly positive as it passes.
    ``collect`` reads them all into the certificate; the CLI writes them to
    the document one at a time instead."""

    def __init__(
        self, q1: int, q2: int, method: Method, report, rows: Iterator[list[int]], den: int
    ):
        self.q1, self.q2, self.method, self.report, self.den = q1, q2, method, report, den
        self.rows = self._positive(rows)

    @staticmethod
    def _positive(rows: Iterator[list[int]]) -> Iterator[list[int]]:
        """rows, each checked to be strictly positive as it is read: a
        nonpositive entry means the certifier chose degrees too low."""
        for i, row in enumerate(rows):
            if min(row) <= 0:
                bad = next(j for j, v in enumerate(row) if v <= 0)
                raise CertificationError(
                    f"row {i} produced a nonpositive coefficient at {bad}; "
                    "the certified bounds did not give a sufficient degree"
                )
            yield row

    def collect(self) -> PositivityCertificate:
        return PositivityCertificate.from_integers(
            self.q1, self.q2, list(self.rows), self.den, self.method, self.report
        )


def _mismatch(p: BPoly, i: int, j: int, diff: Fraction) -> str:
    """The reason for a difference diff between C's expansion and p at x1^i x2^j."""
    want = p.coeffs[i][j] if i <= p.n1 and j <= p.n2 else Fraction(0)
    return (
        f"expansion mismatch at monomial x1^{i} x2^{j}: "
        f"expansion gives {rat_text(want + diff)}, polynomial has {rat_text(want)}"
    )


def _extra_term(p: BPoly, i: int, start: int) -> Optional[str]:
    """The reason naming p's first nonzero coefficient in row i from column
    start on, a monomial C's expansion does not have, or None."""
    row = p.coeffs[i] if i <= p.n1 else ()
    j = next((j for j in range(start, len(row)) if row[j]), None)
    return None if j is None else _mismatch(p, i, j, -row[j])


def verify_rows(
    p: BPoly, q1: int, q2: int, read: Callable[[Iterator[list[int]], int], Iterable[tuple]]
) -> VerificationResult:
    """``verify`` of the certificate at (q1, q2) whose rows, q1 + 1 of
    q2 + 1 entries with positive denominators, are read one at a time and
    not kept.

    ``read(expected, den)`` gives them as (numerators, denominators, p's
    row): ``expected`` yields p's plain rows cut to (q1, q2), numerators
    over ``den``, and ``read`` takes the next one for each row it gives
    while they last.  It gives None for p's row when it has found the row
    equal to it already (a file's reader, by its text) or when ``expected``
    is spent: it is closed at the first mismatch, so p's rows are made only
    up to there.

    Each row gets one ``min`` for its sign and, while there is no mismatch,
    one cross-multiplied comparison with its row of p; a loop runs only to
    locate a difference.  Along each axis the plain map and its inverse are
    unit lower triangular, so the first row-major nonzero entry of
    C - plain_coeffs(cut p) is the difference at the first monomial where
    C's expansion differs from the cut p.  A nonzero coefficient of p past
    (q1, q2) is a mismatch too, after the entries j <= q2 of its row.
    """
    cut = BPoly([row[: q2 + 1] for row in p.coeffs[: q1 + 1]])
    expected, den = plain_rows(cut, q1, q2)
    sign = mismatch = None
    for i, (nums, dens, prow) in enumerate(read(expected, den)):
        if sign is None and min(nums) <= 0:  # denominators are positive
            j = next(j for j, n in enumerate(nums) if n <= 0)
            sign = f"nonpositive entry C[{i}][{j}] = {rat_text(Fraction(nums[j], dens[j]))}"
        if mismatch is None:
            if prow is not None and list(map(mul, nums, repeat(den))) != list(map(mul, prow, dens)):
                j = next(j for j in range(q2 + 1) if nums[j] * den != prow[j] * dens[j])
                diff = Fraction(nums[j] * den - prow[j] * dens[j], dens[j] * den)
                mismatch = _mismatch(p, i, j, diff)
            else:
                mismatch = _extra_term(p, i, q2 + 1)
            if mismatch is not None:
                expected.close()
    if mismatch is None:  # rows of p past q1
        extra = (_extra_term(p, i, 0) for i in range(q1 + 1, p.n1 + 1))
        mismatch = next(filter(None, extra), None)
    reasons = tuple(reason for reason in (sign, mismatch) if reason is not None)
    return VerificationResult(not reasons, reasons)


def verify(p: BPoly, cert: PositivityCertificate) -> VerificationResult:
    """Check strict positivity of all entries and that C is p's plain matrix.

    Both checks always run; the result collects every failure reason found
    (first nonpositive entry in row-major order, first mismatching monomial
    of the expansion of C against p), both read off without expanding C, by
    ``verify_rows`` over the certificate's rows.
    """
    rows = zip(cert.numerators, cert.denominators)
    return verify_rows(
        p, cert.q1, cert.q2,
        lambda expected, _: ((nums, dens, next(expected, None)) for nums, dens in rows),
    )
