"""Degree-raising certification and certified minimum enclosures on the box.

Both certification methods end in the same matrix: the plain Bernstein
coefficients of p at degrees (q1, q2), unique at fixed degrees and computed
by ``certificates.plain_coeffs`` from the difference table of ``univariate``.
The methods differ only in how they choose (q1, q2); this module holds the
raising policy.  At degrees (q1, q2) the normalized coefficients

    c[k][l] = sum_{i,j} a[i][j] * C(k,i) C(l,j) / (C(q1,i) C(q2,j))

(the plain ones divided by C(q1,k) C(q2,l)) have a minimum that never exceeds
the minimum of p over the box, and undershoots it by at most
gamma1*(q1-1)/q1**2 + gamma2*(q2-1)/q2**2 with the explicit gamma sums below.
Doubling both degrees from the floors until the minimum coefficient is
positive therefore certifies strict positivity, and the two bounds together
give a certified enclosure of the minimum that converges as the degrees grow.

Neither search of this module needs that matrix.  As a function of the grid
index, c[k][l] is a polynomial of bidegree (n1, n2) in the binomial basis
C(k,i) C(l,j) (``univariate._weights``); the values of p on the grid
(k/q1, l/q2) are another such polynomial, whose binomial-basis coefficients
are the forward differences at 0 (``univariate._differences``) of its
values at k <= n1, l <= n2.  Both are cleared to small integers and searched
by ``_grid_min``, which walks the grid by prefix sums (``univariate._values``,
the table that also gives the certificate, run forwards where
``_differences`` runs it backwards), so the minimum coefficient and the
refutation witness cost O(q1*q2*(n1+n2)) additions of integers of about
(n1+n2) log q bits.  The plain matrix is built only at the certifying degrees.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .certificates import (
    CertificateRows,
    Method,
    PositivityCertificate,
    expand_plain_2d,
    plain_coeffs,
    plain_rows,
)
from .errors import DegreeError, InconclusiveError, NotPositiveError
from .polys import BPoly, RationalLike, Record, binomial_row, rat, rat_text
from .univariate import _cleared, _differences, _values, _weights

DEFAULT_DOUBLING_CAP = 20  # degree doublings before a raising loop gives up
MAX_GRID_DEGREE = sys.maxsize - 1  # the largest q whose q + 1 grid points a list holds


class BernsteinForm2D(Record):
    """Normalized tensor-product Bernstein coefficients of a bivariate polynomial.

    coeffs[k][l] pairs with C(q1,k) x1**k (1-x1)**(q1-k) *
    C(q2,l) x2**l (1-x2)**(q2-l); the plain coefficient at (k, l) is
    coeffs[k][l] * C(q1,k) * C(q2,l).
    """

    __slots__ = _fields = ("q1", "q2", "coeffs")

    def __post_init__(self):
        if len(self.coeffs) != self.q1 + 1:
            raise ValueError(f"expected {self.q1 + 1} rows, got {len(self.coeffs)}")
        rows = []
        for row in self.coeffs:
            if len(row) != self.q2 + 1:
                raise ValueError(f"expected {self.q2 + 1} columns, got {len(row)}")
            rows.append(tuple(rat(c) for c in row))
        object.__setattr__(self, "coeffs", tuple(rows))


class MinEnclosure(Record):
    """Certified interval [lo, hi] containing min of p over the unit box.

    lo is the minimum normalized Bernstein coefficient at (q1, q2) and
    hi = lo + bound with bound = gamma1*(q1-1)/q1**2 + gamma2*(q2-1)/q2**2.
    """

    __slots__ = _fields = ("q1", "q2", "c_min", "bound")

    @property
    def lo(self) -> Fraction:
        return self.c_min

    @property
    def hi(self) -> Fraction:
        return self.c_min + self.bound


class RaiseReport(Record):
    """Audit data for a degree-raising certificate."""

    __slots__ = _fields = ("doublings", "enclosure", "gamma1", "gamma2")

    def pairs(self) -> tuple[tuple[str, object], ...]:
        """The certificate document's ``report:`` keys and values."""
        return (
            ("doublings", self.doublings),
            ("c_min", self.enclosure.c_min),
            ("bound", self.enclosure.bound),
            ("gamma1", self.gamma1),
            ("gamma2", self.gamma2),
        )


def _grid_min(b: Sequence[Sequence[int]], q1: int, q2: int) -> tuple[int, int, int]:
    """First row-major minimum (f(k, l), k, l) over [0..q1] x [0..q2] of

        f(k, l) = sum_{i,j} b[i][j] C(k,i) C(l,j),

    an integer polynomial given in the binomial basis.  The columns' values
    along k (``univariate._values``, prefix sums) are built once; each row k
    then gives the coefficients along l.
    """
    best = None
    for k, coeffs in enumerate(zip(*(_values(col, q1) for col in zip(*b)))):
        row = _values(coeffs, q2)
        m = min(row)
        if best is None or m < best[0]:
            best = (m, k, row.index(m))
    return best


def _c_min(p: BPoly, q1: int, q2: int) -> Fraction:
    """The smallest normalized Bernstein coefficient of p at (q1, q2): with
    the weights w of ``_weights``, c[k][l] times D q1^(n1) q2^(n2) has the
    binomial-basis coefficients D a[i][j] w1[i] w2[j], all integers.
    Every grid search enters here, so this is where a degree past
    ``MAX_GRID_DEGREE`` is refused, with DegreeError."""
    if max(q1, q2) > MAX_GRID_DEGREE:
        raise DegreeError(
            f"degrees ({rat_text(q1)}, {rat_text(q2)}) are past the largest grid degree"
            f" {MAX_GRID_DEGREE}"
        )
    n1, n2 = p.n1, p.n2
    a, den = _cleared(p.coeffs)
    w2 = _weights(n2, q2)
    b = [[v * u1 * u2 for v, u2 in zip(row, w2)] for row, u1 in zip(a, _weights(n1, q1))]
    value, _, _ = _grid_min(b, q1, q2)
    return Fraction(value, den * math.perm(q1, n1) * math.perm(q2, n2))


def bern_coeffs(p: BPoly, q1: int, q2: int) -> BernsteinForm2D:
    """Normalized Bernstein coefficients of p at degrees (q1, q2).

    The plain coefficients divided by C(q1,k) C(q2,l); requires q1 >= n1 and
    q2 >= n2.
    """
    nums, den = plain_coeffs(p, q1, q2)
    b2 = binomial_row(q2)
    rows = tuple(
        tuple(Fraction(v, b1 * den * bl) for v, bl in zip(row, b2))
        for row, b1 in zip(nums, binomial_row(q1))
    )
    return BernsteinForm2D(q1, q2, rows)


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


def _doubled_degrees(p: BPoly, max_doublings: int) -> Iterator[tuple[int, int]]:
    """The degrees every raising loop walks, in order.

    Starts at the floors (max(n1, 2), max(n2, 2)) and doubles both degrees
    together, max_doublings times, or until the first pair past
    ``MAX_GRID_DEGREE``, which ends the walk: ``_c_min`` refuses it, and no
    pair after it could be searched either.  A negative max_doublings is
    refused on the call; the pairs are generated as the loop asks for them,
    so a loop that stops early never builds the degrees it does not reach.
    """
    if max_doublings < 0:
        raise ValueError("max_doublings must be nonnegative")
    q1, q2 = _degree_floor(p.n1), _degree_floor(p.n2)
    past = (MAX_GRID_DEGREE // max(q1, q2)).bit_length()  # doublings to pass the grid
    return ((q1 << d, q2 << d) for d in range(min(max_doublings, past) + 1))


def min_enclosure(p: BPoly, q1: int, q2: int) -> MinEnclosure:
    """Certified enclosure of min p over the box at degrees (q1, q2).

    Requires q1 >= max(n1, 2) and q2 >= max(n2, 2) so the bound term
    (q-1)/q**2 is meaningful in both variables.  The minimum coefficient is
    found by ``_grid_min`` on small integers, without the plain matrix; only
    c_min and the bound are Fractions.
    """
    if q1 < _degree_floor(p.n1) or q2 < _degree_floor(p.n2):
        raise DegreeError(
            f"degrees ({q1}, {q2}) are below the floors "
            f"({_degree_floor(p.n1)}, {_degree_floor(p.n2)})"
        )
    g1, g2 = gamma_bounds(p)
    return MinEnclosure(q1, q2, _c_min(p, q1, q2), enclosure_bound(g1, g2, q1, q2))


def min_enclosure_to_width(
    p: BPoly, width: RationalLike, max_doublings: int = DEFAULT_DOUBLING_CAP
) -> MinEnclosure:
    """Enclosure at the first doubled degrees whose bound is at most width.

    Only the bound decides the degrees, so the minimum search runs once.
    When the cap is reached first, the enclosure at the last degrees is
    returned and its bound exceeds width; when the walk passes the grid
    first, its last pair is refused with DegreeError.
    """
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
    ratio = Fraction(math.comb(k, i) * math.comb(l, j), math.comb(q1, i) * math.comb(q2, j))
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
            p.eval(Fraction(k, q1), Fraction(l, q2)) * (math.comb(q1, k) * math.comb(q2, l))
            for l in range(q2 + 1)
        ]
        for k in range(q1 + 1)
    ]
    return expand_plain_2d(plain, q1, q2)


def _corner_check(p: BPoly) -> None:
    for x1, x2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        value = p.eval(x1, x2)
        if value <= 0:
            raise NotPositiveError((Fraction(x1), Fraction(x2)), value)


def _scaled_values(coeffs: Sequence[int], q: int) -> list[int]:
    """[q**n f(k/q) for k <= n], f = sum_i coeffs[i] x**i and
    n = len(coeffs) - 1: sum_i coeffs[i] k**i q**(n-i), on integers."""
    n = len(coeffs) - 1
    return [sum(c * k**i * q ** (n - i) for i, c in enumerate(coeffs)) for k in range(n + 1)]


def _refute(p: BPoly, enc: MinEnclosure) -> None:
    """Raise NotPositiveError at the grid point (k/q1, l/q2) minimizing p.

    With D clearing p's denominators, D q1**n1 q2**n2 p(k/q1, l/q2) is an
    integer polynomial f(k, l) of bidegree (n1, n2).  Its values at k <= n1,
    l <= n2, differenced along both axes (``_differences``), are its
    binomial-basis coefficients, and ``_grid_min`` finds its first minimum
    in row-major order, the witness; only it and its value become Fractions.
    """
    q1, q2, n1, n2 = enc.q1, enc.q2, p.n1, p.n2
    a, den = _cleared(p.coeffs)
    # Along x1 on each column of a (the x2**j coefficients), then along x2.
    cols = [_differences(_scaled_values(col, q1)) for col in zip(*a)]
    b = [_differences(_scaled_values(row, q2)) for row in zip(*cols)]
    num, k, l = _grid_min(b, q1, q2)
    value = Fraction(num, den * q1**n1 * q2**n2)
    raise NotPositiveError((Fraction(k, q1), Fraction(l, q2)), value, at_most=enc.hi)


def _raise(
    p: BPoly, accept: Callable[[MinEnclosure], bool], what: str, max_doublings: int
) -> tuple[int, MinEnclosure]:
    """The loop of both raising policies: (doublings, enclosure) at the first
    doubled degrees whose enclosure ``accept`` takes, c_min coming from
    ``_grid_min``.  Refutes p once hi <= 0; at the cap, raises
    InconclusiveError("no <what> after ...") with the last enclosure."""
    _corner_check(p)
    g1, g2 = gamma_bounds(p)
    enc = None
    for doublings, (q1, q2) in enumerate(_doubled_degrees(p, max_doublings)):
        enc = MinEnclosure(q1, q2, _c_min(p, q1, q2), enclosure_bound(g1, g2, q1, q2))
        if accept(enc):
            return doublings, enc
        if enc.hi <= 0:
            _refute(p, enc)
    raise InconclusiveError(f"no {what} after {max_doublings} degree doublings", best=enc)


def minimum_lower_bound(
    p: BPoly, max_doublings: int = DEFAULT_DOUBLING_CAP
) -> tuple[Fraction, MinEnclosure]:
    """Certified positive lower bound on min p over the box.

    Doubles the enclosure degrees until the minimum coefficient is positive
    and dominates the error bound (so the returned bound is at least half the
    true minimum).  Raises NotPositiveError when an enclosure proves the
    minimum nonpositive, and InconclusiveError at the doubling cap.
    """
    _, enc = _raise(
        p, lambda e: 0 < e.c_min and e.bound <= e.c_min, "positive lower bound", max_doublings
    )
    return enc.c_min, enc


def raise_rows(p: BPoly, max_doublings: int = DEFAULT_DOUBLING_CAP) -> CertificateRows:
    """``certify_raise`` up to its matrix: the degrees are chosen by the
    doubling walk from the floors and the report made, and the rows of
    ``plain_rows`` at those degrees are left to be read.  Raises as
    ``certify_raise`` does."""
    doublings, enc = _raise(p, lambda e: e.c_min > 0, "positive Bernstein form", max_doublings)
    rows, den = plain_rows(p, enc.q1, enc.q2)
    report = RaiseReport(doublings, enc, *gamma_bounds(p))
    return CertificateRows(enc.q1, enc.q2, Method.RAISE, report, rows, den)


def certify_raise(p: BPoly, max_doublings: int = DEFAULT_DOUBLING_CAP) -> PositivityCertificate:
    """Certify p > 0 on the box by raising the Bernstein degrees.

    Starting from the floors (max(n1,2), max(n2,2)), doubles both degrees
    until every normalized coefficient is positive: the certificate, when
    there is one within the cap, depends on p alone.  ``plain_coeffs`` runs
    once, at the degrees that certify, and its (N, D) is the certificate:
    ``raise_rows``, collected.  Raises NotPositiveError with a grid witness
    when an enclosure shows the minimum is nonpositive, and
    InconclusiveError with the best enclosure when the doubling cap is
    reached.
    """
    return raise_rows(p, max_doublings).collect()
