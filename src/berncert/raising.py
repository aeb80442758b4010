"""Degree-raising certification and certified minimum enclosures on the box.

Both certification methods end in the same matrix: the plain Bernstein
coefficients of p at degrees (q1, q2), unique at fixed degrees and computed
by ``certificates.plain_coeffs`` with the one forward kernel of ``univariate``.
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
by ``_grid_min``, a branch and bound that drops the parts of the grid whose
Bernstein bound (the paper's tool, turned on the index polynomial) shows
they hold no earlier minimum, and scans the rest row by row: lowest bound
first, stopping at the first row the bound rules out, each row by prefix
sums (``univariate._values``, the table that also gives the certificate,
run forwards where ``_differences`` runs it backwards) or, at degree <= 2
in l, in closed form.  So the minimum coefficient and the refutation
witness cost O(n1+n2) additions of integers of about (n1+n2) log q bits per
point scanned: the whole grid at worst, but near an isolated minimum a few
rows of a few rectangles of at most ``LEAF`` points, and along a valley of
minima the rectangles it crosses.  Its memory is its stack's O(log q)
rectangles, each with its corner's tables.  The plain matrix is built only
at the certifying degrees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
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
from .polys import BPoly, RationalLike, Record, binomials, rat, rat_text
from .univariate import MAX_GRID_DEGREE, _cleared, _differences, _plain, _values, _weights

DEFAULT_DOUBLING_CAP = 20  # degree doublings before a raising loop gives up
LEAF = 65 * 65  # grid points of a rectangle that _grid_min scans rather than halves


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


@lru_cache(maxsize=256)
def _bernstein_weights(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """For each Bernstein index k <= n, the tuple over i <= n of (n!)**2
    times the k-th Bernstein coefficient at degree n, on s in [0, 1], of
    C(d*s, i).  These are integers, and for g(u) = sum_i c[i] C(u, i) the
    smallest over k of sum_i c[i] times the k-th tuple's i-th entry is
    (n!)**2 times a lower bound of g on [0, d].  i! C(d*s, i) is
    prod_{r<i} (d*s - r), whose integer monomial coefficients take one
    multiply per factor; ``_plain`` gives its plain coefficients at degree
    n, and its Bernstein coefficients are those over C(n, k)."""
    fact = math.factorial
    binoms, falling, rows = list(binomials(n)), [1], []
    for i in range(n + 1):
        scale = fact(n) // fact(i)
        plain = _plain(falling, n, binoms)
        rows.append([v * scale * fact(k) * fact(n - k) for k, v in enumerate(plain)])
        falling = [d * a - i * c for a, c in zip([0] + falling, falling + [0])]
    return tuple(zip(*rows))


def _shifted(coeffs: Sequence[int], x0: int) -> Sequence[int]:
    """The coefficients of u -> g(x0 + u) in the binomial basis, for
    g(x) = sum_i coeffs[i] C(x, i): by Vandermonde's identity
    C(x0+u, i) = sum_m C(x0, i-m) C(u, m)."""
    if not x0:
        return coeffs
    binomials = [math.comb(x0, t) for t in range(len(coeffs))]
    return [sum(map(mul, coeffs[m:], binomials)) for m in range(len(coeffs))]


def _row_min(coeffs: Sequence[int], span: int) -> tuple[int, int]:
    """The first minimum (g(v), v) over v = 0..span of g(v) = sum_i coeffs[i]
    C(v, i).  Past degree 2 by the scan of ``_values``; else in closed form,
    as g(v+1) - g(v) = c1 + c2 v: the first v where that is >= 0 if c2 > 0,
    clamped to the row, otherwise an end, 0 on a tie."""
    if len(coeffs) > 3:
        row = list(_values(coeffs, span))
        m = min(row)
        return m, row.index(m)
    c0, c1, c2 = (*coeffs, 0, 0)[:3]
    if c2 > 0:
        v = min(max(-(c1 // c2), 0), span)
    else:
        v = span if c1 * span + c2 * (span * (span - 1) // 2) < 0 else 0
    return c0 + c1 * v + c2 * (v * (v - 1) // 2), v


def _grid_min(b: Sequence[Sequence[int]], q1: int, q2: int) -> tuple[int, int, int]:
    """First row-major minimum (f(k, l), k, l) over [0..q1] x [0..q2] of

        f(k, l) = sum_{i,j} b[i][j] C(k,i) C(l,j),

    an integer polynomial given in the binomial basis, by depth-first
    branch and bound over rectangles of grid indices.  A part of the grid is
    bounded below by the smallest tensor Bernstein coefficient of f on it:
    f shifted to the part's first point (``_shifted``), mapped onto the unit
    box by the affine change and scaled to integers (``_bernstein_weights``).
    It is dropped when the bound shows it holds no point before the best one
    found in the order (f(k, l), k, l).

    A rectangle of at most ``LEAF`` points is scanned row by row, so a grid
    of at most ``LEAF`` points is one scan: its rows' coefficients along l,
    shifted to its corner, and their bounds come from prefix sums along k
    (``univariate._values``).  The rows are visited in the order (bound, k)
    and minimized by ``_row_min``, and the scan stops at the first row that
    is dropped: every later row is dropped too, since its bound is no
    lower, a tied bound has a later k, and the best only falls in the order
    (f(k, l), k, l).  A larger rectangle is halved across the side that is
    longer as a share of its axis, and the halves are visited lowest bound
    first.  Each rectangle on the stack carries its corner's tables, which
    bounded it and which its scan, or its first half along k, reads again,
    so memory grows with the stack's depth, O(log q); time still grows with
    the rectangles a valley crosses.
    """
    n1, n2 = len(b) - 1, len(b[0]) - 1
    scale1, scale2 = math.factorial(n1) ** 2, math.factorial(n2) ** 2
    best = (b[0][0], 0, 0)  # f(0, 0)

    def beaten(low: int, scale: int, k0: int, l0: int) -> bool:
        """Whether a part bounded below by low / scale, whose first point is
        (k0, l0), holds no point before the best."""
        value, k, l = best
        return low > value * scale or low == value * scale and (k0, l0) > (k, l)

    def corner(k0: int, l0: int, l1: int) -> tuple[list[Sequence[int]], list[list[int]]]:
        """f(k0 + u, l0 + v) in the binomial basis, and the coefficients in
        C(u, i) of its rows' Bernstein coefficients on [l0, l1], times
        scale2."""
        shifted = [_shifted(row, l0) for row in zip(*(_shifted(col, k0) for col in zip(*b)))]
        weights = _bernstein_weights(l1 - l0, n2)
        return shifted, [[sum(map(mul, row, w)) for w in weights] for row in shifted]

    def bound(bounded: list[list[int]], k0: int, k1: int) -> int:
        weights = _bernstein_weights(k1 - k0, n1)
        return min(sum(map(mul, u, v)) for v in zip(*bounded) for u in weights)

    # (bound, rectangle, its corner), the next last; the grid has no bound
    todo = [(None, (0, q1, 0, q2), corner(0, 0, q2))]
    while todo:
        low, (k0, k1, l0, l1), (shifted, bounded) = todo.pop()
        if low is not None and beaten(low, scale1 * scale2, k0, l0):
            continue
        if (k1 - k0 + 1) * (l1 - l0 + 1) <= LEAF:
            lows = map(min, zip(*(_values(col, k1 - k0) for col in zip(*bounded))))
            rows = zip(*(_values(col, k1 - k0) for col in zip(*shifted)))
            for low, k, coeffs in sorted(zip(lows, range(k0, k1 + 1), rows)):  # k breaks ties
                if beaten(low, scale2, k, l0):
                    break  # so is every later row: best only falls, the bounds only rise
                m, v = _row_min(coeffs, l1 - l0)
                if m <= best[0]:
                    best = min(best, (m, k, l0 + v))
            continue
        if k1 > k0 and (k1 - k0) * q2 >= (l1 - l0) * q1:  # the first half keeps the corner
            mid = (k0 + k1) // 2
            halves = [((k0, mid, l0, l1), (shifted, bounded)),
                      ((mid + 1, k1, l0, l1), corner(mid + 1, l0, l1))]
        else:
            mid = (l0 + l1) // 2
            halves = [((k0, k1, l0, mid), corner(k0, l0, mid)),
                      ((k0, k1, mid + 1, l1), corner(k0, mid + 1, l1))]
        todo += sorted(  # lowest last, by (bound, rectangle): the tables are never compared
            ((bound(tables[1], *rect[:2]), rect, tables) for rect, tables in halves),
            key=lambda entry: entry[:2], reverse=True,
        )
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
    b2 = list(binomials(q2))
    rows = tuple(
        tuple(Fraction(v, b1 * den * bl) for v, bl in zip(row, b2))
        for row, b1 in zip(nums, binomials(q1))
    )
    return BernsteinForm2D(q1, q2, rows)


def min_coeff(b: BernsteinForm2D) -> Fraction:
    """Smallest coefficient of the form."""
    return min(map(min, b.coeffs))


def gamma_bounds(p: BPoly) -> tuple[Fraction, Fraction]:
    """The pair (gamma1, gamma2) with gamma1 = (1/2) sum |a_ij| i(i-1) and
    gamma2 the symmetric sum weighted by j(j-1).  Both sums run on the
    integers D a_ij of ``univariate._cleared``; each gamma is one Fraction,
    made at the end."""
    a, den = _cleared(p.coeffs)
    g1 = sum(i * (i - 1) * sum(map(abs, row)) for i, row in enumerate(a))
    g2 = sum(j * (j - 1) * sum(map(abs, col)) for j, col in enumerate(zip(*a)))
    return Fraction(g1, 2 * den), Fraction(g2, 2 * den)


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
        bound = enclosure_bound(g1, g2, q1, q2)
        if bound <= width:
            break
    return MinEnclosure(q1, q2, _c_min(p, q1, q2), bound)


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
    """Refute p at the first of the corners (0, 0), (0, 1), (1, 0), (1, 1)
    where it is not positive.  On p's cleared integers a over D, D p there
    is a[0][0], the sum of row 0, of column 0, of all of a; only a refuting
    value becomes a Fraction."""
    a, den = _cleared(p.coeffs)
    values = (a[0][0], sum(a[0]), sum(row[0] for row in a), sum(map(sum, a)))
    for (x1, x2), value in zip(((0, 0), (0, 1), (1, 0), (1, 1)), values):
        if value <= 0:
            raise NotPositiveError((Fraction(x1), Fraction(x2)), Fraction(value, den))


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
) -> tuple[int, MinEnclosure, tuple[Fraction, Fraction]]:
    """The loop of both raising policies: (doublings, enclosure, gammas) at
    the first doubled degrees whose enclosure ``accept`` takes, c_min coming
    from ``_grid_min``.  Refutes p once hi <= 0; at the cap, raises
    InconclusiveError("no <what> after ...") with the last enclosure."""
    _corner_check(p)
    g1, g2 = gammas = gamma_bounds(p)
    enc = None
    for doublings, (q1, q2) in enumerate(_doubled_degrees(p, max_doublings)):
        enc = MinEnclosure(q1, q2, _c_min(p, q1, q2), enclosure_bound(g1, g2, q1, q2))
        if accept(enc):
            return doublings, enc, gammas
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
    _, enc, _ = _raise(
        p, lambda e: 0 < e.c_min and e.bound <= e.c_min, "positive lower bound", max_doublings
    )
    return enc.c_min, enc


def raise_rows(p: BPoly, max_doublings: int = DEFAULT_DOUBLING_CAP) -> CertificateRows:
    """``certify_raise`` up to its matrix: the degrees are chosen by the
    doubling walk from the floors and the report made, and the rows of
    ``plain_rows`` at those degrees are left to be read.  Raises as
    ``certify_raise`` does."""
    doublings, enc, gammas = _raise(
        p, lambda e: e.c_min > 0, "positive Bernstein form", max_doublings
    )
    rows, den = plain_rows(p, enc.q1, enc.q2)
    report = RaiseReport(doublings, enc, *gammas)
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
