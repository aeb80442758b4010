"""Plain bivariate Bernstein positivity certificates and their verification.

A certificate for p consists of degrees (q1, q2) and a strictly positive
matrix C with

    p(x1, x2) = sum_{i,j} C[i][j] * x1**i (1-x1)**(q1-i) * x2**j (1-x2)**(q2-j).

For q1 >= n1 and q2 >= n2 the products above form a basis of the
polynomials of bidegree at most (q1, q2), so that matrix is unique: it is
``plain_coeffs(p, q1, q2)``, computed by the one exact kernel of
``univariate``.  Verification is a pure function of the certificate and the
polynomial that does not trust the producer: it recomputes that matrix and
compares it with C by integer cross-multiplication, in
O(q1*q2*(n1+n2)) operations.  Below p's degrees no C can expand to p, since
p is stored trimmed.  Only a rejection expands C into monomials
(``expand_plain_2d``, the same kernel with alternating signs, along x2 and
then along x1), to name the first mismatching monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import DegreeError
from .polys import BPoly, rat
from .univariate import _plain_kernel


class Method(Enum):
    NESTED = "nested"
    RAISE = "raise"


@dataclass(frozen=True)
class PositivityCertificate:
    """Degrees plus a strictly positive plain Bernstein coefficient matrix."""

    q1: int
    q2: int
    coefficients: tuple[tuple[Fraction, ...], ...]
    method: Method
    report: Optional[object] = None

    def __post_init__(self):
        if len(self.coefficients) != self.q1 + 1:
            raise ValueError(
                f"expected {self.q1 + 1} rows, got {len(self.coefficients)}"
            )
        rows = []
        for row in self.coefficients:
            if len(row) != self.q2 + 1:
                raise ValueError(
                    f"expected {self.q2 + 1} columns, got {len(row)}"
                )
            rows.append(tuple(rat(c) for c in row))
        object.__setattr__(self, "coefficients", tuple(rows))


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
    rows, den = _plain_kernel(coefficients, q2, sign=-1)
    cols, _ = _plain_kernel(list(zip(*rows)), q1, sign=-1)
    return BPoly([[Fraction(v, den) for v in row] for row in zip(*cols)])


def plain_coeffs(p: BPoly, q1: int, q2: int) -> tuple[list[list[int]], int]:
    """Plain Bernstein coefficients of p at degrees (q1, q2), as integers.

    Returns (N, D) with plain[k][l] = N[k][l] / D: the one kernel runs over
    the columns of p (the x1 pass, whose rows are the coefficient polynomials
    A_k(x2) scaled by D) and then over the rows of that result (the x2 pass).
    Requires q1 >= n1 and q2 >= n2.
    """
    n1, n2 = p.n1, p.n2
    if q1 < n1 or q2 < n2:
        raise DegreeError(
            f"degrees ({q1}, {q2}) are below polynomial degrees ({n1}, {n2})"
        )
    cols, den = _plain_kernel(list(zip(*p.coeffs)), q1)
    rows, _ = _plain_kernel(list(zip(*cols)), q2)
    return rows, den


def _is_plain_matrix(p: BPoly, cert: PositivityCertificate) -> bool:
    """Whether C is the plain Bernstein matrix of p at (q1, q2).

    Equivalent to expand_plain_2d(C, q1, q2) == p: at degrees below p's
    there is no such matrix, and at or above them it is unique.
    """
    if cert.q1 < p.n1 or cert.q2 < p.n2:
        return False
    nums, den = plain_coeffs(p, cert.q1, cert.q2)
    return all(
        c.numerator * den == v * c.denominator
        for row, crow in zip(nums, cert.coefficients)
        for v, c in zip(row, crow)
    )


def _first_mismatch(p: BPoly, cert: PositivityCertificate) -> str:
    """Names the first monomial, row-major, where C's expansion differs from p."""
    expansion = expand_plain_2d(cert.coefficients, cert.q1, cert.q2)
    n1 = max(expansion.n1, p.n1)
    n2 = max(expansion.n2, p.n2)

    def coeff(poly: BPoly, r: int, c: int) -> Fraction:
        if r <= poly.n1 and c <= poly.n2:
            return poly.coeffs[r][c]
        return Fraction(0)

    for r in range(n1 + 1):
        for c in range(n2 + 1):
            got, want = coeff(expansion, r, c), coeff(p, r, c)
            if got != want:
                return (
                    f"expansion mismatch at monomial x1^{r} x2^{c}: "
                    f"expansion gives {got}, polynomial has {want}"
                )
    raise AssertionError("C is not the plain matrix of p, yet expands to p")


def verify(p: BPoly, cert: PositivityCertificate) -> VerificationResult:
    """Check strict positivity of all entries and that C is p's plain matrix.

    Both checks always run; the result collects every failure reason found
    (first nonpositive entry in row-major order, first mismatching monomial
    of the expansion of C against p).  The expansion is computed only to
    name that monomial, after the kernel comparison has failed.
    """
    reasons = []
    entry = next(
        (
            (i, j)
            for i, row in enumerate(cert.coefficients)
            for j, c in enumerate(row)
            if c.numerator <= 0  # a Fraction's denominator is positive
        ),
        None,
    )
    if entry is not None:
        i, j = entry
        reasons.append(
            f"nonpositive entry C[{i}][{j}] = {cert.coefficients[i][j]}"
        )
    if not _is_plain_matrix(p, cert):
        reasons.append(_first_mismatch(p, cert))
    return VerificationResult(not reasons, tuple(reasons))
