"""Plain bivariate Bernstein positivity certificates and their verification.

A certificate for p consists of degrees (q1, q2) and a strictly positive
matrix C with

    p(x1, x2) = sum_{i,j} C[i][j] * x1**i (1-x1)**(q1-i) * x2**j (1-x2)**(q2-j).

For q1 >= n1 and q2 >= n2 the products above form a basis of the
polynomials of bidegree at most (q1, q2), so that matrix is unique: it is
``plain_coeffs(p, q1, q2)``, integer numerators N over one denominator D,
made one row at a time by the forward pass of ``univariate`` along x1
(``_plain_pass``) and then along x2 (``_plain_rows``).  A certificate holds
C as integer numerators over integer denominators: the certifiers store
(N, D) as ``plain_coeffs`` gave them, a parsed document its tokens as
written, and ``coefficients`` is a derived Fraction view.  Verification is
a pure function of the certificate and the polynomial that does not trust
the producer: it checks the sign of every numerator (denominators are
positive), then makes the rows of that matrix for p cut to degrees
(q1, q2) and compares them in order with the stored fractions by integer
cross-multiplication, up to the first mismatch, which also names the first
monomial where C's expansion differs from p (see ``_mismatch``).  C is
never expanded; ``expand_plain_2d`` is the inverse map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DegreeError
from .polys import BPoly, rat
from .univariate import _plain_kernel, _plain_pass, _plain_rows


class Method(Enum):
    NESTED = "nested"
    RAISE = "raise"


Matrix = tuple[tuple[int, ...], ...]


def same_values(an: Matrix, ad: Matrix, bn: Matrix, bd: Matrix) -> bool:
    """Whether the matrices an/ad and bn/bd of integer numerators over
    denominators have equal shapes and equal values (by cross-multiplication)."""
    return len(an) == len(bn) and all(
        len(rn) == len(sn) and all(n * e == m * d for n, d, m, e in zip(rn, rd, sn, sd))
        for rn, rd, sn, sd in zip(an, ad, bn, bd)
    )


@dataclass(frozen=True, init=False, eq=False)
class PositivityCertificate:
    """Degrees plus a strictly positive plain Bernstein coefficient matrix.

    Entry C[i][j] is numerators[i][j] / denominators[i][j], integers with
    positive denominators, not necessarily in lowest terms: the certifiers
    store the kernel's numerators over its one denominator, and a parsed
    document stores its tokens as written.  ``coefficients`` is the same
    matrix as Fractions.  Equality compares values, not representations.
    """

    q1: int
    q2: int
    numerators: Matrix
    denominators: Matrix
    method: Method
    report: Optional[object] = None

    def __init__(self, q1: int, q2: int, coefficients, method: Method, report=None):
        """Certificate from rows of rationals (Fraction, int or str)."""
        rows = [list(map(rat, row)) for row in coefficients]
        self._fill(
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
        cert._fill(
            q1, q2, tuple(map(tuple, numerators)), tuple(map(tuple, denominators)), method, report
        )
        return cert

    def _fill(self, q1, q2, numerators, denominators, method, report) -> None:
        for matrix in (numerators, denominators):
            if len(matrix) != q1 + 1:
                raise ValueError(f"expected {q1 + 1} rows, got {len(matrix)}")
            for row in matrix:
                if len(row) != q2 + 1:
                    raise ValueError(f"expected {q2 + 1} columns, got {len(row)}")
        if min(map(min, denominators)) <= 0:
            raise ValueError("denominators must be positive")
        for name, value in zip(
            ("q1", "q2", "numerators", "denominators", "method", "report"),
            (q1, q2, numerators, denominators, method, report),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def coefficients(self) -> tuple[tuple[Fraction, ...], ...]:
        """C as Fractions, built on first use."""
        return tuple(
            tuple(map(Fraction, nrow, drow))
            for nrow, drow in zip(self.numerators, self.denominators)
        )

    def __eq__(self, other):
        if not isinstance(other, PositivityCertificate):
            return NotImplemented
        return (self.q1, self.q2, self.method, self.report) == (
            other.q1, other.q2, other.method, other.report
        ) and same_values(self.numerators, self.denominators, other.numerators, other.denominators)

    def __hash__(self):
        return hash((self.q1, self.q2, self.method))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a certificate check; falsy when invalid, with reasons."""

    ok: bool
    reasons: tuple[str, ...] = ()

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


def plain_coeffs(p: BPoly, q1: int, q2: int) -> tuple[list[list[int]], int]:
    """Plain Bernstein coefficients of p at degrees (q1, q2), as integers.

    Returns (N, D) with plain[k][l] = N[k][l] / D: ``_plain_pass`` over the
    columns of p (the x1 pass, whose rows are the coefficient polynomials
    A_k(x2) scaled by D), then ``_plain_rows`` over its rows (the x2 pass).
    Requires q1 >= n1 and q2 >= n2.
    """
    n1, n2 = p.n1, p.n2
    if q1 < n1 or q2 < n2:
        raise DegreeError(
            f"degrees ({q1}, {q2}) are below polynomial degrees ({n1}, {n2})"
        )
    x1_rows, den = _plain_pass(list(zip(*p.coeffs)), q1)
    return list(_plain_rows(x1_rows, n2, q2)), den


def _mismatch(p: BPoly, cert: PositivityCertificate) -> Optional[str]:
    """Names the first monomial, row-major, where C's expansion differs from
    p, or returns None when C is p's plain matrix at (q1, q2).

    Along each axis the plain map and its inverse are lower triangular with
    unit diagonal.  So with p cut to degrees (q1, q2), the first row-major
    nonzero entry of C - plain_coeffs(cut p) sits at the first monomial
    where the expansion of C differs from the cut p, and equals that
    difference.  The expansion has no monomial past (q1, q2), where any
    nonzero coefficient of p is a mismatch too.  Row by row, the entries
    j <= q2 come before p's coefficients past q2, and the rows of
    plain_coeffs(cut p) are made one at a time, up to the first mismatch.
    """
    q1, q2 = cert.q1, cert.q2
    cut = BPoly([row[: q2 + 1] for row in p.coeffs[: q1 + 1]])
    x1_rows, den = _plain_pass(list(zip(*cut.coeffs)), q1)
    nums = _plain_rows(x1_rows, cut.n2, q2)
    for i in range(max(q1, p.n1) + 1):
        if i <= q1:  # entries indexed, not unpacked: no tuple per entry
            crow, drow, prow = cert.numerators[i], cert.denominators[i], next(nums)
            j = next((j for j in range(q2 + 1) if crow[j] * den != prow[j] * drow[j]), None)
            if j is not None:
                diff = Fraction(crow[j] * den - prow[j] * drow[j], drow[j] * den)
                break
        row = p.coeffs[i] if i <= p.n1 else ()
        j = next((j for j in range(q2 + 1 if i <= q1 else 0, len(row)) if row[j]), None)
        if j is not None:
            diff = -row[j]
            break
    else:
        return None
    want = p.coeffs[i][j] if i <= p.n1 and j <= p.n2 else Fraction(0)
    return (
        f"expansion mismatch at monomial x1^{i} x2^{j}: "
        f"expansion gives {want + diff}, polynomial has {want}"
    )


def verify(p: BPoly, cert: PositivityCertificate) -> VerificationResult:
    """Check strict positivity of all entries and that C is p's plain matrix.

    Both checks always run; the result collects every failure reason found
    (first nonpositive entry in row-major order, first mismatching monomial
    of the expansion of C against p), both read off without expanding C.
    """
    reasons = []
    entry = next(
        (
            (i, j)
            for i, row in enumerate(cert.numerators)
            for j, n in enumerate(row)
            if n <= 0  # denominators are positive
        ),
        None,
    )
    if entry is not None:
        i, j = entry
        reasons.append(
            f"nonpositive entry C[{i}][{j}] = "
            f"{Fraction(cert.numerators[i][j], cert.denominators[i][j])}"
        )
    mismatch = _mismatch(p, cert)
    if mismatch is not None:
        reasons.append(mismatch)
    return VerificationResult(not reasons, tuple(reasons))
