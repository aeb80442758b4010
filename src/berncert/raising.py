"""Degree-raising certification and certified minimum enclosures on the box.

Both certification methods end in the same matrix: the plain Bernstein
coefficients of p at degrees (q1, q2), unique at fixed degrees and computed
by ``certificates.plain_coeffs`` with the one exact kernel of ``univariate``.
The methods differ only in how they choose (q1, q2); this module holds the
raising policy.  At degrees (q1, q2) the normalized coefficients

    c[k][l] = sum_{i,j} a[i][j] * C(k,i) C(l,j) / (C(q1,i) C(q2,j))

(the plain ones divided by C(q1,k) C(q2,l)) have a minimum that never exceeds
the minimum of p over the box, and undershoots it by at most
gamma1*(q1-1)/q1**2 + gamma2*(q2-1)/q2**2 with the explicit gamma sums below.
Doubling both degrees from the floors until the minimum coefficient is
positive therefore certifies strict positivity, and the two bounds together
give a certified enclosure of the minimum that converges as the degrees grow.

Both searches of this module run on integers: the minimum coefficient
compares the kernel's numerators by cross-multiplication with the weights
C(q1,k) C(q2,l), and the refutation witness compares the values of p on the
grid (k/q1, l/q2) as numerators over one common denominator.  Only their
results become Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certificates import (
    Method,
    PositivityCertificate,
    expand_plain_2d,
    plain_coeffs,
)
from .errors import DegreeError, InconclusiveError, NotPositiveError
from .polys import BPoly, RationalLike, binom, rat
from .univariate import BasisConvention


@dataclass(frozen=True)
class BernsteinForm2D:
    """Tensor-product Bernstein coefficients of a bivariate polynomial.

    Normalized convention pairs coeffs[k][l] with
    C(q1,k) x1**k (1-x1)**(q1-k) * C(q2,l) x2**l (1-x2)**(q2-l); the plain
    convention drops the binomial factors, so plain[k][l] equals
    normalized[k][l] * C(q1,k) * C(q2,l).
    """

    q1: int
    q2: int
    coeffs: tuple[tuple[Fraction, ...], ...]
    convention: BasisConvention

    def __post_init__(self):
        if len(self.coeffs) != self.q1 + 1:
            raise ValueError(f"expected {self.q1 + 1} rows, got {len(self.coeffs)}")
        rows = []
        for row in self.coeffs:
            if len(row) != self.q2 + 1:
                raise ValueError(f"expected {self.q2 + 1} columns, got {len(row)}")
            rows.append(tuple(rat(c) for c in row))
        object.__setattr__(self, "coeffs", tuple(rows))


@dataclass(frozen=True)
class MinEnclosure:
    """Certified interval [lo, hi] containing min of p over the unit box.

    lo is the minimum normalized Bernstein coefficient at (q1, q2) and
    hi = lo + bound with bound = gamma1*(q1-1)/q1**2 + gamma2*(q2-1)/q2**2.
    """

    q1: int
    q2: int
    c_min: Fraction
    bound: Fraction

    @property
    def lo(self) -> Fraction:
        return self.c_min

    @property
    def hi(self) -> Fraction:
        return self.c_min + self.bound


@dataclass(frozen=True)
class RaiseReport:
    """Audit data for a degree-raising certificate."""

    doublings: int
    enclosure: MinEnclosure
    gamma1: Fraction
    gamma2: Fraction


def _min_normalized(nums: list[list[int]], den: int, q1: int, q2: int) -> Fraction:
    """Smallest normalized coefficient nums[k][l] / (den * C(q1,k) C(q2,l)).

    Entries are compared as v * w' < v' * w with positive weights w: within a
    row by C(q2,l), then the row minima by C(q1,k) C(q2,l).  Only the minimum
    becomes a Fraction.
    """
    b2 = [binom(q2, l) for l in range(q2 + 1)]
    best_v, best_w = nums[0][0], 1
    for k, row in enumerate(nums):
        row_v, row_w = row[0], 1
        for v, w in zip(row, b2):
            if v * row_w < row_v * w:
                row_v, row_w = v, w
        row_w *= binom(q1, k)
        if row_v * best_w < best_v * row_w:
            best_v, best_w = row_v, row_w
    return Fraction(best_v, best_w * den)


def bern_coeffs(p: BPoly, q1: int, q2: int) -> BernsteinForm2D:
    """Normalized Bernstein coefficients of p at degrees (q1, q2).

    The plain coefficients divided by C(q1,k) C(q2,l); requires q1 >= n1 and
    q2 >= n2.
    """
    nums, den = plain_coeffs(p, q1, q2)
    b2 = [binom(q2, l) for l in range(q2 + 1)]
    rows = tuple(
        tuple(Fraction(v, binom(q1, k) * den * bl) for v, bl in zip(row, b2))
        for k, row in enumerate(nums)
    )
    return BernsteinForm2D(q1, q2, rows, BasisConvention.NORMALIZED)


def min_coeff(b: BernsteinForm2D) -> Fraction:
    """Smallest coefficient of the form."""
    return min(map(min, b.coeffs))


def gamma_bounds(p: BPoly) -> tuple[Fraction, Fraction]:
    """The pair (gamma1, gamma2) with gamma1 = (1/2) sum |a_ij| i(i-1) and
    gamma2 the symmetric sum weighted by j(j-1)."""
    g1 = Fraction(0)
    g2 = Fraction(0)
    for i, row in enumerate(p.coeffs):
        for j, a in enumerate(row):
            if a == 0:
                continue
            mag = abs(a)
            g1 += mag * (i * (i - 1))
            g2 += mag * (j * (j - 1))
    return g1 / 2, g2 / 2


def enclosure_bound(gamma1: Fraction, gamma2: Fraction, q1: int, q2: int) -> Fraction:
    """gamma1*(q1-1)/q1**2 + gamma2*(q2-1)/q2**2, exactly."""
    return gamma1 * Fraction(q1 - 1, q1 * q1) + gamma2 * Fraction(q2 - 1, q2 * q2)


def _degree_floor(n: int) -> int:
    return max(n, 2)


def _doubled_degrees(
    p: BPoly, max_doublings: int, q_start: Optional[tuple[int, int]] = None
) -> list[tuple[int, int]]:
    """The degrees every raising loop walks, in order.

    Starts at q_start (default the floors (max(n1, 2), max(n2, 2))) and
    doubles both degrees together, max_doublings times.
    """
    f1, f2 = _degree_floor(p.n1), _degree_floor(p.n2)
    q1, q2 = (f1, f2) if q_start is None else q_start
    if q1 < f1 or q2 < f2:
        raise DegreeError(f"q_start {q_start} is below the floors ({f1}, {f2})")
    return [(q1 << d, q2 << d) for d in range(max_doublings + 1)]


def min_enclosure(p: BPoly, q1: int, q2: int) -> MinEnclosure:
    """Certified enclosure of min p over the box at degrees (q1, q2).

    Requires q1 >= max(n1, 2) and q2 >= max(n2, 2) so the bound term
    (q-1)/q**2 is meaningful in both variables.  The minimum coefficient is
    found by an integer scan of the kernel's numerators; only c_min and the
    bound are Fractions.
    """
    if q1 < _degree_floor(p.n1) or q2 < _degree_floor(p.n2):
        raise DegreeError(
            f"degrees ({q1}, {q2}) are below the floors "
            f"({_degree_floor(p.n1)}, {_degree_floor(p.n2)})"
        )
    c_min = _min_normalized(*plain_coeffs(p, q1, q2), q1, q2)
    g1, g2 = gamma_bounds(p)
    return MinEnclosure(q1, q2, c_min, enclosure_bound(g1, g2, q1, q2))


def min_enclosure_to_width(
    p: BPoly, width: RationalLike, max_doublings: int = 20
) -> MinEnclosure:
    """Enclosure at the first doubled degrees whose bound is at most width.

    Only the bound decides the degrees, so the kernel runs once.  When the
    cap is reached first, the enclosure at the last degrees is returned and
    its bound exceeds width.
    """
    if max_doublings < 0:
        raise ValueError("max_doublings must be nonnegative")
    width = rat(width)
    g1, g2 = gamma_bounds(p)
    for q1, q2 in _doubled_degrees(p, max_doublings):
        if enclosure_bound(g1, g2, q1, q2) <= width:
            break
    return min_enclosure(p, q1, q2)


def delta(i: int, j: int, k: int, l: int, q1: int, q2: int) -> Fraction:
    """(k/q1)**i * (l/q2)**j - C(k,i) C(l,j) / (C(q1,i) C(q2,j)), exactly.

    This is the normalized Bernstein coefficient of the approximation error
    B_{q1,q2}(x1**i x2**j) - x1**i x2**j at position (k, l); it is nonnegative
    and at most (q1-1)/q1**2 * i(i-1)/2 + (q2-1)/q2**2 * j(j-1)/2.
    """
    if q1 < 1 or q2 < 1:
        raise ValueError("degrees must be at least 1")
    if not (0 <= i <= q1 and 0 <= j <= q2):
        raise ValueError("exponents must satisfy 0 <= i <= q1 and 0 <= j <= q2")
    if not (0 <= k <= q1 and 0 <= l <= q2):
        raise ValueError("grid indices must satisfy 0 <= k <= q1 and 0 <= l <= q2")
    sample = Fraction(k, q1) ** i * Fraction(l, q2) ** j
    ratio = Fraction(binom(k, i) * binom(l, j), binom(q1, i) * binom(q2, j))
    return sample - ratio


def bernstein_approximation(p: BPoly, q1: int, q2: int) -> BPoly:
    """The Bernstein operator approximation of p at degrees (q1, q2).

    The grid values p(k/q1, l/q2) times C(q1,k) C(q2,l) are its plain
    Bernstein coefficients, expanded into monomial form exactly.
    """
    if q1 < 1 or q2 < 1:
        raise ValueError("degrees must be at least 1")
    plain = [
        [
            p.eval(Fraction(k, q1), Fraction(l, q2)) * (binom(q1, k) * binom(q2, l))
            for l in range(q2 + 1)
        ]
        for k in range(q1 + 1)
    ]
    return expand_plain_2d(plain, q1, q2)


def _corner_check(p: BPoly) -> None:
    zero, one = Fraction(0), Fraction(1)
    for x1 in (zero, one):
        for x2 in (zero, one):
            value = p.eval(x1, x2)
            if value <= 0:
                raise NotPositiveError(
                    f"p({x1}, {x2}) = {value} is not strictly positive",
                    witness=(x1, x2),
                    value=value,
                )


def _refute(p: BPoly, enc: MinEnclosure) -> None:
    """Raise NotPositiveError at the grid point (k/q1, l/q2) minimizing p.

    With D clearing p's denominators, D q1**n1 q2**n2 p(k/q1, l/q2) is the
    integer sum of A[i][j] k**i l**j with A[i][j] = D a[i][j] q1**(n1-i)
    q2**(n2-j), evaluated by Horner in k and then in l.  The first minimum in
    row-major order is the witness; only it and its value become Fractions.
    """
    q1, q2, n1, n2 = enc.q1, enc.q2, p.n1, p.n2
    den = math.lcm(*(a.denominator for row in p.coeffs for a in row))
    # The A[i][j] by decreasing i within columns of decreasing j: Horner
    # order in k, then in l.
    cols = [
        [
            a.numerator * (den // a.denominator) * q1 ** (n1 - i) * q2 ** (n2 - j)
            for i, a in reversed(list(enumerate(col)))
        ]
        for j, col in reversed(list(enumerate(zip(*p.coeffs))))
    ]
    best = None
    for k in range(q1 + 1):
        slice_coeffs = []
        for col in cols:
            acc = 0
            for a in col:
                acc = acc * k + a
            slice_coeffs.append(acc)
        for l in range(q2 + 1):
            acc = 0
            for c in slice_coeffs:
                acc = acc * l + c
            if best is None or acc < best[0]:
                best = (acc, k, l)
    num, k, l = best
    witness = (Fraction(k, q1), Fraction(l, q2))
    value = Fraction(num, den * q1**n1 * q2**n2)
    raise NotPositiveError(
        f"minimum over the box is at most {enc.hi}; p{witness} = {value}",
        witness=witness,
        value=value,
    )


def minimum_lower_bound(
    p: BPoly, max_doublings: int = 20
) -> tuple[Fraction, MinEnclosure]:
    """Certified positive lower bound on min p over the box.

    Doubles the enclosure degrees until the minimum coefficient is positive
    and dominates the error bound (so the returned bound is at least half the
    true minimum).  Raises NotPositiveError when an enclosure proves the
    minimum nonpositive, and InconclusiveError at the doubling cap.
    """
    _corner_check(p)
    enc = None
    for q1, q2 in _doubled_degrees(p, max_doublings):
        enc = min_enclosure(p, q1, q2)
        if enc.c_min > 0 and enc.bound <= enc.c_min:
            return enc.c_min, enc
        if enc.hi <= 0:
            _refute(p, enc)
    raise InconclusiveError(
        f"no positive lower bound after {max_doublings} degree doublings",
        best=enc,
    )


def certify_raise(
    p: BPoly,
    q_start: Optional[tuple[int, int]] = None,
    max_doublings: int = 20,
) -> PositivityCertificate:
    """Certify p > 0 on the box by raising the Bernstein degrees.

    Starting from q_start (default (max(n1,2), max(n2,2))), doubles both
    degrees until every normalized coefficient is positive; the plain
    coefficients of that same kernel result form the certificate.  At each
    degree pair the minimum coefficient comes from an integer scan of the
    kernel's numerators; only c_min and, on success, the certificate entries
    are Fractions.  Raises NotPositiveError with a grid witness when an
    enclosure shows the minimum is nonpositive, and InconclusiveError with
    the best enclosure when the doubling cap is reached.
    """
    _corner_check(p)
    g1, g2 = gamma_bounds(p)
    enc = None
    for doublings, (q1, q2) in enumerate(_doubled_degrees(p, max_doublings, q_start)):
        nums, den = plain_coeffs(p, q1, q2)
        c_min = _min_normalized(nums, den, q1, q2)
        enc = MinEnclosure(q1, q2, c_min, enclosure_bound(g1, g2, q1, q2))
        if c_min > 0:
            plain = tuple(tuple(Fraction(v, den) for v in row) for row in nums)
            report = RaiseReport(doublings, enc, g1, g2)
            return PositivityCertificate(q1, q2, plain, Method.RAISE, report)
        if enc.hi <= 0:
            _refute(p, enc)
    raise InconclusiveError(
        f"no positive Bernstein form after {max_doublings} degree doublings",
        best=enc,
    )
