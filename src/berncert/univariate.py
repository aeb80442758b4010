"""Univariate Bernstein machinery on the unit interval.

Provides conversion between the monomial basis and the plain Bernstein basis
x**i * (1-x)**(m-i) (no binomial factor), the Goursat transform
p~(x) = (2x)**n * p((1-x)/x), degree elevation, an explicit degree bound at
which a strictly positive polynomial acquires a nonnegative Bernstein
representation, certified range enclosure by de Casteljau bisection (on
integer control points, stopped by rules on integers: only an enclosure a
caller keeps becomes Fractions), and a positivity certifier that combines
all of the above.  The forward map to plain Bernstein form is a difference
table (``_values`` over ``_weights``, a cached tuple per (n, q), so a pass
computes it once, not once per row), one lazy kernel ``_plain`` on
integers: once for ``to_bernstein_plain``, and along x1 (``_plain_pass``)
and x2 (``_plain_rows``) in the bivariate modules; the range enclosure
reads its control points off the table.  The inverse
map is the same table run backwards (``_differences``, the forward
differences at 0): ``_plain_kernel``, for ``from_bernstein``, the Goursat
transform (``_goursat``) and ``certificates.expand_plain_2d``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat, tee
from operator import floordiv, mul
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import CertificationError, DegreeError, InconclusiveError, NotPositiveError
from .polys import RationalLike, Record, UPoly, binomials, rat

Vector = Sequence[Union[Fraction, int]]

DEFAULT_REFINEMENT_CAP = 64  # bisection levels before a range enclosure gives up


class BernsteinForm1D(Record):
    """Plain Bernstein coefficients of a univariate polynomial at a fixed degree:
    p(x) = sum_i coeffs[i] * x**i * (1-x)**(degree-i).
    """

    __slots__ = _fields = ("degree", "coeffs")

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeError(f"negative Bernstein degree {self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"expected {self.degree + 1} coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))


class RangeEnclosure1D(Record):
    """Certified range enclosure of a polynomial over [0, 1].

    ``lo <= min p`` and ``max p <= hi``.  ``min_value``/``max_value`` are
    exact polynomial values attained at the sample points ``min_point`` /
    ``max_point``, so the true minimum lies in [lo, min_value] and the true
    maximum in [max_value, hi].  ``subdivisions`` counts bisection levels.
    """

    __slots__ = _fields = (
        "lo", "hi", "subdivisions", "min_value", "min_point", "max_value", "max_point"
    )


def _cleared(vectors: Sequence[Vector]) -> tuple[list[list[int]], int]:
    """([D * a for each vector a], D), D the lcm of all the denominators."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return [[c.numerator * (den // c.denominator) for c in v] for v in vectors], den


MAX_GRID_DEGREE = sys.maxsize - 1  # the largest q whose q + 1 values islice can cut


def _values(coeffs: Sequence[int], q: int) -> Iterator[int]:
    """f(0), ..., f(q) for f(k) = sum_i coeffs[i] C(k, i), each made when it
    is asked for, by prefix sums: f_t(k) = sum_{i >= t} coeffs[i] C(k, i-t)
    is coeffs[t] plus the sum of f_{t+1}(m) over m < k, starting from the
    constant coeffs[n]."""
    vals = repeat(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        vals = accumulate(vals, initial=c)
    return islice(vals, q + 1)


def _differences(values: Sequence[int]) -> list[int]:
    """The forward differences at 0 of [f(0), ..., f(q)]: the coefficients
    c of f(k) = sum_i c[i] C(k, i) (Newton's forward-difference formula),
    by rounds of differences in place.  The inverse of ``_values``, which
    is the same table run the other way."""
    out = list(values)
    for t in range(1, len(out)):  # out[k] for k >= t becomes the t-th difference at k - t
        for k in range(len(out) - 1, t - 1, -1):
            out[k] -= out[k - 1]
    return out


@lru_cache(maxsize=256)
def _weights(n: int, q: int) -> tuple[int, ...]:
    """(i! (q-i)^(n-i) for i <= n), falling factorials, for q >= n: the
    normalized coefficient C(k, i) / C(q, i) of x**i is C(k, i) w[i] / q^(n).
    Cached, 256 tuples of n + 1 entries, as the passes ask for one (n, q)
    per row or column."""
    return tuple([math.factorial(i) * math.perm(q - i, n - i) for i in range(n + 1)])


def _plain_kernel(vectors: Sequence[Vector], q: int) -> tuple[list[list[int]], int]:
    """The inverse map at degree q, plain Bernstein to monomial, on integers:
    the forward map at n = q read backwards.  With w = ``_weights(q, q)``,
    w[i] = i! (q-i)!, the forward map sends monomial coefficients a to plain
    ones b with b[k] w[k] = ``_values``([a[i] w[i]], q)[k] (``_plain``'s
    C(q, k) / q! is 1 / w[k]).  So, with D the common denominator, a vector
    b of length at most q + 1, zero-padded to q + 1 entries, maps to
    a[i] = ``_differences``([D b[k] w[k]])[i] / w[i], the division exact.
    Returns (outputs, D).
    """
    vectors, den = _cleared(vectors)
    w = _weights.__wrapped__(q, q)  # uncached: q + 1 entries of up to log2(q!) bits
    padded = ([b * u for b, u in zip(v, w)] + [0] * (q + 1 - len(v)) for v in vectors)
    return [[d // u for d, u in zip(_differences(f), w)] for f in padded], den


def _plain(a: Sequence[int], q: int, binoms: Iterable[int]) -> Iterator[int]:
    """Monomial to plain Bernstein at degree q of an integer vector a of
    length n + 1 <= q + 1: out[k] = sum over i <= min(n, k) of
    C(q-i, k-i) a[i], which is C(q, k) * _values([a[i] w[i]], q)[k] / q^(n)
    with w = ``_weights``, the division exact.  Yields out[k] for k = 0..q,
    each made when it is asked for, with C(q, k) read from binoms."""
    n = len(a) - 1
    if n == 0:  # out = a[0] C(q, k): no table, and no division by q^(0) = 1
        return map(mul, binoms, repeat(a[0]))
    scale = math.perm(q, n)
    vals = _values([c * u for c, u in zip(a, _weights(n, q))], q)
    return map(floordiv, map(mul, binoms, vals), repeat(scale))


def _plain_pass(vectors: Sequence[Vector], q: int) -> tuple[Iterator[tuple[int, ...]], int]:
    """``_plain`` at degree q of vectors of one length, cleared to their
    common denominator D.  Returns (outputs, D); outputs yields the tuple of
    every vector's out[k] for k = 0..q in turn, each made when it is asked
    for, so a reader that stops early never pays for the rest.  The vectors
    share one C(q, .) stream, teed: they read it in step, so the tee holds
    a few entries, never the row."""
    vectors, den = _cleared(vectors)
    streams = tee(binomials(q), len(vectors))
    return zip(*map(_plain, vectors, repeat(q), streams)), den


def _plain_rows(rows: Iterable[Sequence[int]], q: int) -> Iterator[list[int]]:
    """``_plain`` of each integer vector at degree q, one vector at a time:
    the x2 pass over many rows, with C(q, .) listed once for all."""
    binoms = list(binomials(q))
    for row in rows:
        yield list(_plain(row, q, binoms))


def to_bernstein_plain(p: UPoly, m: int) -> BernsteinForm1D:
    """Plain Bernstein coefficients of p at degree m >= degree(p).

    Coefficient i is sum over j <= min(n, i) of C(m-j, m-i) * a_j, the unique
    representation of p in the basis x**i * (1-x)**(m-i).
    """
    n = p.degree
    if m < n:
        raise DegreeError(f"target degree {m} is below polynomial degree {n}")
    outputs, den = _plain_pass([p.coeffs], m)
    return BernsteinForm1D(m, tuple(Fraction(v, den) for v, in outputs))


def from_bernstein(b: BernsteinForm1D) -> UPoly:
    """Exact monomial form of a plain Bernstein representation.

    One ``_plain_kernel`` call: the difference table of ``to_bernstein_plain``
    at n = degree, run backwards by ``_differences``.
    """
    (nums,), den = _plain_kernel([b.coeffs], b.degree)
    return UPoly([Fraction(v, den) for v in nums])


def _goursat(vectors: Sequence[Vector], n: int) -> tuple[list[list[int]], int]:
    """Goursat coefficients at degree n of each vector of at most n + 1
    coefficients, as integers: (rows, D), transform r being
    sum_k rows[r][k] x**k / D.

    (2x)**n * p((1-x)/x) = 2**n * sum_i a_i * x**(n-i) * (1-x)**i is the
    plain Bernstein form at degree n with coefficient vector
    2**n * (a_n, ..., a_0), p's coefficients zero-padded to n + 1 entries
    and reversed: one inverse kernel call over all the vectors, and a shift.
    """
    reversed_padded = [[0] * (n + 1 - len(v)) + list(reversed(v)) for v in vectors]
    rows, den = _plain_kernel(reversed_padded, n)
    return [[v << n for v in row] for row in rows], den


def goursat_coefficients(p: UPoly, n: Optional[int] = None) -> tuple[Fraction, ...]:
    """Coefficients (B_0, ..., B_n) of the Goursat transform of p.

    ``n`` defaults to the stored degree; a larger n treats p as padded with
    zero coefficients up to x**n, which scales and shifts the transform
    accordingly.  One ``_goursat`` call.
    """
    if n is None:
        n = p.degree
    elif n < p.degree:
        raise DegreeError(f"declared degree {n} is below polynomial degree {p.degree}")
    (nums,), den = _goursat([p.coeffs], n)
    return tuple(Fraction(v, den) for v in nums)


def goursat(p: UPoly) -> UPoly:
    """The Goursat transform p~(x) = (2x)**n * p((1-x)/x) as a polynomial."""
    return UPoly(goursat_coefficients(p))


def powers_reznick_degree(
    n: int, max_abs_e: RationalLike, lambda_lower: RationalLike
) -> int:
    """Degree q = 3n + ceil(2 n**2 max_abs_e / lambda_lower) + 1.

    At this degree a polynomial of degree n that is at least lambda_lower on
    [0, 1], whose Goursat transform has coefficients bounded by max_abs_e in
    absolute value, has nonnegative plain Bernstein coefficients.  The ceiling
    is taken exactly on rationals.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    max_abs_e = rat(max_abs_e)
    lam = rat(lambda_lower)
    if max_abs_e < 0:
        raise ValueError("max_abs_e must be nonnegative")
    if lam <= 0:
        raise ValueError("lambda_lower must be positive to certify positivity")
    return 3 * n + math.ceil(Fraction(2 * n * n) * max_abs_e / lam) + 1


def elevate(b: BernsteinForm1D, q_star: int) -> BernsteinForm1D:
    """The plain Bernstein form of b's polynomial at degree q_star >= b.degree.

    The plain basis at q_star >= q is a basis of the polynomials of degree at
    most q_star, so the result is the plain form of b's polynomial there:
    new coefficient k is the sum over l of C(q_star-q, k-l) * A_l for the
    plain coefficients A of b, and the represented polynomial is unchanged.
    """
    if q_star < b.degree:
        raise DegreeError(
            f"cannot elevate degree {b.degree} form to lower degree {q_star}"
        )
    return to_bernstein_plain(from_bernstein(b), q_star)


def _decasteljau_halves(control: list[int], m: int) -> tuple[list[int], list[int]]:
    """Split integer control points of degree m at the midpoint.

    Sums of neighbours replace midpoints, so layer r holds 2**r times the
    true values; shifting it left by m - r bits puts both halves over a
    common scale 2**m times the input's.
    """
    left, right = [control[0] << m], [control[-1] << m]
    layer = control
    for r in range(1, m + 1):
        layer = [a + b for a, b in zip(layer, layer[1:])]
        left.append(layer[0] << (m - r))
        right.append(layer[-1] << (m - r))
    right.reverse()
    return left, right


def _enclosure(lo, hi, levels, min_value, min_point, max_value, max_point, scale):
    """The RangeEnclosure1D of a bisection level on integers: its fields,
    with the values as numerators over scale and the points over
    2**levels.  The one place where a level becomes Fractions."""
    points = 1 << levels
    return RangeEnclosure1D(
        Fraction(lo, scale), Fraction(hi, scale), levels,
        Fraction(min_value, scale), Fraction(min_point, points),
        Fraction(max_value, scale), Fraction(max_point, points),
    )


def _range_enclosure(
    coeffs: Sequence[int],
    den: int,
    stop: Callable[..., bool],
    max_levels: int,
) -> tuple[int, ...]:
    """``range_enclosure_1d`` of sum_i coeffs[i] x**i / den, on integers.

    Trailing zero coefficients are dropped, so the degree m is the
    polynomial's own.  The normalized coefficients at degree m are
    ``_values`` of the integers coeffs[i] i! (m-i)! over S = m! den, and
    every bisection level multiplies the scale by 2**m.  All segments alive
    at one level share that scale, so comparisons are integer ones.  A
    segment whose control points lie in [min_value, max_value] is dropped
    for good (min_value only falls and max_value only rises), so lo and hi
    are min_value and max_value widened by the live segments alone: an
    attained value is an end control point of some segment, and a dropped
    one's points lie between them.  Each level is the tuple (lo, hi,
    levels, min_value, min_point, max_value, max_point, scale) of integers
    that ``_enclosure`` reads.  ``stop`` is called with it unpacked, once
    per level, and the level it accepts, or an exact one (no segment live:
    lo = min_value and hi = max_value), is returned as it is, before any
    segment is split; each segment carries its least and greatest control
    points, so level 0, one segment, builds no other list.  The only
    Fractions made here are those of the RangeEnclosure1D that the
    InconclusiveError at the cap carries.  Every enclosure of the package
    runs here, so this is where a negative max_levels is refused, with
    ValueError.
    """
    if max_levels < 0:
        raise ValueError("max_levels must be nonnegative")
    m = len(coeffs) - 1
    while m > 0 and coeffs[m] == 0:
        m -= 1
    first = list(_values([a * w for a, w in zip(coeffs, _weights(m, m))], m))
    scale = math.factorial(m) * den
    # The first attained minimum and maximum among the endpoints x = 0, 1.
    min_value, min_point = (first[0], 0) if first[0] <= first[-1] else (first[-1], 1)
    max_value, max_point = (first[0], 0) if first[0] >= first[-1] else (first[-1], 1)
    lo, hi = min(first), max(first)
    segments = [(lo, hi, 0, first)]  # (low, high, j, control points) on [j, j+1] / 2**levels
    levels = 0
    while True:
        level = (lo, hi, levels, min_value, min_point, max_value, max_point, scale << m * levels)
        # lo >= min_value and hi <= max_value: no segment is live, lo and hi are attained.
        if stop(*level) or (lo >= min_value and hi <= max_value):
            return level
        if levels >= max_levels:
            raise InconclusiveError(
                f"range enclosure not tight enough after {max_levels} bisection levels",
                best=_enclosure(*level),
            )
        live = [(j, cps) for low, high, j, cps in segments if low < min_value or high > max_value]
        # One level down: every kept integer moves to the new scale.
        min_value, max_value = min_value << m, max_value << m
        min_point, max_point = min_point << 1, max_point << 1
        segments = []
        for j, cps in live:
            left, right = _decasteljau_halves(cps, m)
            segments.append((min(left), max(left), 2 * j, left))
            segments.append((min(right), max(right), 2 * j + 1, right))
            mid_value = left[-1]
            if mid_value < min_value:
                min_value, min_point = mid_value, 2 * j + 1
            if mid_value > max_value:
                max_value, max_point = mid_value, 2 * j + 1
        lo = min(min_value, *(s[0] for s in segments))
        hi = max(max_value, *(s[1] for s in segments))
        levels += 1


def _within(width: Fraction) -> Callable[..., bool]:
    """The stop rule on a level's integers: both gaps min_value - lo and
    hi - max_value are at most width, cross-multiplied."""
    num, den = width.numerator, width.denominator
    return lambda lo, hi, levels, min_value, min_point, max_value, max_point, scale: (
        max(min_value - lo, hi - max_value) * den <= num * scale
    )


def range_enclosure_1d(
    p: UPoly,
    max_width: Optional[RationalLike] = None,
    *,
    predicate: Optional[Callable[[RangeEnclosure1D], bool]] = None,
    max_levels: int = DEFAULT_REFINEMENT_CAP,
) -> RangeEnclosure1D:
    """Certified enclosure of the range of p over [0, 1].

    The normalized Bernstein coefficients of p on a subinterval bound its
    values there, and the first and last coefficients are the exact endpoint
    values; bisecting by exact midpoint de Casteljau subdivision tightens the
    bounds.  The subdivision runs on integers (see ``_range_enclosure``);
    the enclosure returned is exact rationals.  Refinement stops when
    ``predicate`` holds of a level's enclosure, or, given ``max_width``,
    when both gaps min_value - lo and hi - max_value are at most max_width
    (the outer bounds then match attained values to within max_width).  If
    the enclosure becomes exact (lo and hi both attained) it is returned as
    is.  Raises InconclusiveError when max_levels bisection levels do not
    suffice, with the best enclosure attached.
    """
    if predicate is not None:
        stop = lambda *level: predicate(_enclosure(*level))
    elif max_width is None:
        raise ValueError("provide either max_width or a stopping predicate")
    else:
        width = rat(max_width)
        if width <= 0:
            raise ValueError("max_width must be positive")
        stop = _within(width)
    (ints,), den = _cleared([p.coeffs])
    return _enclosure(*_range_enclosure(ints, den, stop, max_levels))


class UnivariateCertificate(Record):
    """Strict-positivity certificate for a univariate polynomial on [0, 1].

    ``form`` is a plain Bernstein representation of degree ``q_star = 2 * q``
    whose coefficients are all strictly positive; ``q`` is the degree bound
    computed from ``max_abs_e`` (largest Goursat coefficient magnitude) and
    the certified lower bound ``lambda_lower`` on min p over [0, 1].
    """

    __slots__ = _fields = ("q_star", "form", "q", "lambda_lower", "max_abs_e")


def certify_positive_1d(
    p: UPoly, max_levels: int = DEFAULT_REFINEMENT_CAP
) -> UnivariateCertificate:
    """Certify p > 0 on [0, 1] by a strictly positive plain Bernstein form.

    Pipeline: certify a positive lower bound on min p by range enclosure with
    bisection refinement, bound the Goursat coefficients exactly, compute the
    degree bound q, and convert p at q_star = 2q, where all coefficients are
    strictly positive.  Raises NotPositiveError with a witness point when a
    sample value <= 0 turns up (the endpoints are checked first since the
    extreme plain coefficients equal p(0) and p(1)), and InconclusiveError
    when the enclosure still straddles zero at the bisection cap.  A
    nonpositive coefficient at q_star, which means the degree bound was not
    sufficient, is a CertificationError, as in the bivariate certifiers.
    """
    for endpoint in (Fraction(0), Fraction(1)):
        value = p.eval(endpoint)
        if value <= 0:
            raise NotPositiveError(endpoint, value)
    enc = range_enclosure_1d(
        p,
        predicate=lambda e: e.lo > 0 or e.min_value <= 0,
        max_levels=max_levels,
    )
    if enc.min_value <= 0:
        raise NotPositiveError(enc.min_point, enc.min_value)
    lam = enc.lo
    e = goursat_coefficients(p)
    max_abs_e = max(abs(c) for c in e)
    q = powers_reznick_degree(p.degree, max_abs_e, lam)
    q_star = 2 * q
    form = to_bernstein_plain(p, q_star)
    bad = [i for i, c in enumerate(form.coeffs) if c <= 0]
    if bad:
        raise CertificationError(
            f"certified lower bound produced a nonpositive coefficient at {bad[0]}"
        )
    return UnivariateCertificate(q_star, form, q, lam, max_abs_e)
