"""Univariate Bernstein machinery: conversions, transform, elevation, enclosure."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from berncert import (
    BPoly,
    BernsteinForm1D,
    CertificationError,
    DegreeError,
    InconclusiveError,
    NotPositiveError,
    RangeEnclosure1D,
    UPoly,
    certify_positive_1d,
    elevate,
    from_bernstein,
    goursat,
    goursat_coefficients,
    powers_reznick_degree,
    range_enclosure_1d,
    to_bernstein_plain,
)
from berncert import univariate
from berncert.certificates import plain_coeffs, plain_rows
from berncert.nested import _coefficient_rows, _q2_stop, coefficient_bernstein_polys
from berncert.univariate import (
    _cleared,
    _decasteljau_halves,
    _differences,
    _enclosure,
    _goursat,
    _plain_kernel,
    _plain_pass,
    _range_enclosure,
    _values,
    _weights,
    _within,
)

from corpus import random_unit_fraction, random_upoly

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
upolys_st = st.lists(fractions_st, min_size=1, max_size=9).map(UPoly)


def _sympy_expand_plain(coeffs, m):
    """Independent expansion of a plain Bernstein form via sympy."""
    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i * (1 - x) ** (m - i)
        for i, c in enumerate(coeffs)
    )
    poly = sympy.Poly(sympy.expand(expr), x)
    out = [Fraction(0)] * (poly.degree() + 1)
    for (power,), coeff in poly.terms():
        out[power] = Fraction(int(coeff.p), int(coeff.q))
    return UPoly(out)


class TestToBernstein:
    def test_constant_at_degree_two(self):
        assert to_bernstein_plain(UPoly([1]), 2).coeffs == (1, 2, 1)

    def test_x_at_degree_two(self):
        assert to_bernstein_plain(UPoly([0, 1]), 2).coeffs == (0, 1, 1)

    def test_basis_element(self):
        assert to_bernstein_plain(UPoly([1, -1]), 1).coeffs == (1, 0)

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            to_bernstein_plain(UPoly([0, 0, 1]), 1)

    def test_against_sympy_expansion(self):
        rng = random.Random(11)
        for _ in range(5):
            p = random_upoly(rng, max_degree=5)
            m = p.degree + rng.randint(0, 3)
            form = to_bernstein_plain(p, m)
            assert _sympy_expand_plain(form.coeffs, m) == p

    @given(upolys_st, st.integers(0, 4))
    @settings(deadline=None)
    def test_roundtrip_identity(self, p, extra):
        m = p.degree + extra
        assert from_bernstein(to_bernstein_plain(p, m)) == p


class TestFromBernstein:
    def test_plain_examples(self):
        assert from_bernstein(BernsteinForm1D(2, (1, 2, 1))) == UPoly([1])
        assert from_bernstein(BernsteinForm1D(2, (0, 1, 1))) == UPoly([0, 1])


class TestGoursat:
    def test_constant(self):
        assert goursat(UPoly([1])) == UPoly([1])

    def test_x(self):
        assert goursat(UPoly([0, 1])) == UPoly([2, -2])

    def test_one_plus_x_full_vector(self):
        assert goursat_coefficients(UPoly([1, 1])) == (2, 0)
        assert goursat(UPoly([1, 1])) == UPoly([2])

    def test_declared_degree_below_polynomial_degree(self):
        with pytest.raises(DegreeError, match="^declared degree 1 is below polynomial degree 2$"):
            goursat_coefficients(UPoly([1, 2, 3]), 1)

    def test_declared_degree_padding(self):
        # Padding to degree n scales the transform by (2x)**(n - deg).
        p = UPoly([1, 1])
        padded = UPoly(goursat_coefficients(p, n=3))
        x = Fraction(2, 5)
        assert padded.eval(x) == (2 * x) ** 3 * p.eval((1 - x) / x)

    @given(
        upolys_st,
        st.integers(0, 3),
        st.fractions(min_value=0, max_value=1, max_denominator=40),
    )
    @settings(deadline=None)
    def test_pointwise_identity(self, p, padding, x):
        if x == 0:
            x = Fraction(1, 2)
        n = p.degree + padding
        transform = UPoly(goursat_coefficients(p, n))
        assert transform.eval(x) == (2 * x) ** n * p.eval((1 - x) / x)
        if padding == 0:
            assert goursat(p) == transform

    @given(st.lists(fractions_st, min_size=1, max_size=9), st.integers(0, 3))
    @settings(deadline=None)
    def test_batched_integer_helper(self, v, padding):
        # Trailing zeros in v stay in the vector _goursat pads, while UPoly
        # trims them: both must give the same transform at degree n.
        n = len(v) - 1 + padding
        (row,), den = _goursat([v], n)
        assert tuple(Fraction(c, den) for c in row) == goursat_coefficients(UPoly(v), n)


class TestPowersReznickDegree:
    def test_constant(self):
        assert powers_reznick_degree(0, 0, 1) == 1

    def test_one_plus_x(self):
        assert powers_reznick_degree(1, 2, 1) == 8

    def test_quadratic(self):
        assert powers_reznick_degree(2, 1, Fraction(1, 2)) == 23

    def test_exact_integer_quotient_rounds_up(self):
        # 2 * 1 * 3 / 1 = 6 exactly; ceiling keeps it at 6.
        assert powers_reznick_degree(1, 3, 1) == 3 + 6 + 1

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            powers_reznick_degree(2, 1, 0)
        with pytest.raises(ValueError):
            powers_reznick_degree(2, 1, -1)

    def test_negative_degree_or_magnitude_rejected(self):
        with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
            powers_reznick_degree(-1, 1, 1)
        with pytest.raises(ValueError, match="^max_abs_e must be nonnegative$"):
            powers_reznick_degree(2, -1, 1)


class TestElevate:
    def test_constant_reelevated(self):
        form = BernsteinForm1D(1, (1, 1))
        assert elevate(form, 2).coeffs == (1, 2, 1)

    def test_x_elevated(self):
        form = BernsteinForm1D(2, (0, 1, 1))
        lifted = elevate(form, 3)
        assert lifted.coeffs == (0, 1, 2, 1)
        assert from_bernstein(lifted) == UPoly([0, 1])

    def test_identity_case(self):
        form = BernsteinForm1D(2, (3, 5, 7))
        assert elevate(form, 2) == form

    def test_lowering_rejected(self):
        from berncert import DegreeError

        form = BernsteinForm1D(2, (3, 5, 7))
        with pytest.raises(DegreeError):
            elevate(form, 1)

    @given(upolys_st, st.integers(0, 5))
    @settings(deadline=None)
    def test_soundness(self, p, extra):
        form = to_bernstein_plain(p, p.degree)
        lifted = elevate(form, p.degree + extra)
        assert from_bernstein(lifted) == p
        assert lifted == to_bernstein_plain(p, p.degree + extra)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=5, max_denominator=8),
            min_size=2,
            max_size=7,
        ),
        st.integers(0, 6),
    )
    @settings(deadline=None)
    def test_elevation_positivity_bound(self, coeffs, extra):
        # Nonnegative coefficients with positive ends: after at least
        # doubling the degree, every coefficient is >= min of the ends.
        coeffs[0] += Fraction(1, 3)
        coeffs[-1] += Fraction(1, 7)
        q = len(coeffs) - 1
        form = BernsteinForm1D(q, tuple(coeffs))
        q_star = 2 * q + extra
        lifted = elevate(form, q_star)
        floor = min(coeffs[0], coeffs[-1])
        assert all(c >= floor for c in lifted.coeffs)
        assert floor > 0


class TestRangeEnclosure:
    def test_x_is_exact_without_subdivision(self):
        enc = range_enclosure_1d(UPoly([0, 1]), max_width=Fraction(1, 100))
        assert enc.lo == 0 and enc.hi == 1
        assert enc.subdivisions == 0
        assert enc.min_value == 0 and enc.max_value == 1

    def test_exact_level_zero_ends_a_predicate_that_never_holds(self):
        # 1 + x has control points 1, 2, both attained: no segment is left
        # to bisect, so level 0 is returned though the predicate is false.
        enc = range_enclosure_1d(UPoly([1, 1]), predicate=lambda e: False)
        assert enc == RangeEnclosure1D(1, 2, 0, 1, 0, 2, 1)

    def test_predicate_judges_each_level_once(self):
        # Level 0 is judged once, as every later level is.  (x - 1/3)**2 is
        # never exact (its zero is not dyadic), so every level up to the cap
        # is judged; x**2 - x + 1/2 is exact at level 1, 1 + x at level 0.
        cases = [
            (UPoly([Fraction(1, 9), Fraction(-2, 3), 1]), [0, 1, 2, 3, 4, 5]),
            (UPoly([Fraction(1, 2), -1, 1]), [0, 1]),
            (UPoly([1, 1]), [0]),
        ]
        for p, judged in cases:
            seen = []
            try:
                range_enclosure_1d(
                    p, predicate=lambda e: seen.append(e.subdivisions), max_levels=5
                )
            except InconclusiveError:
                pass
            assert seen == judged

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="^max_width must be positive$"):
            range_enclosure_1d(UPoly([1, 1]), max_width=0)

    def test_one_plus_x_squared(self):
        enc = range_enclosure_1d(UPoly([1, 0, 1]), max_width=Fraction(1, 4))
        assert enc.lo >= 1 and enc.hi <= 2

    def test_hump_against_grid(self):
        p = UPoly([0, 1, -1])  # x(1-x), max 1/4 at 1/2
        enc = range_enclosure_1d(p, predicate=lambda e: e.subdivisions >= 1)
        assert enc.subdivisions >= 1
        assert enc.lo <= Fraction(1, 4) <= enc.hi
        assert enc.lo >= 0
        grid = [p.eval(Fraction(k, 100)) for k in range(101)]
        assert enc.lo <= min(grid) and max(grid) <= enc.hi

    def test_soundness_on_random_polynomials(self):
        rng = random.Random(23)
        for _ in range(10):
            p = random_upoly(rng, max_degree=6)
            enc = range_enclosure_1d(p, max_width=Fraction(1, 2))
            for _ in range(100):
                x = random_unit_fraction(rng)
                assert enc.lo <= p.eval(x) <= enc.hi

    def test_width_nonincreasing_in_subdivisions(self):
        p = UPoly([1, -6, 12, -6])
        widths = []
        for k in range(7):
            enc = range_enclosure_1d(p, predicate=lambda e, k=k: e.subdivisions >= k)
            widths.append(enc.hi - enc.lo)
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_inconclusive_reports_best(self):
        p = UPoly([Fraction(1, 9), Fraction(-2, 3), 1])  # (x - 1/3)**2
        # zero exactly at 1/3, strictly positive nowhere certified
        with pytest.raises(InconclusiveError) as info:
            range_enclosure_1d(p, predicate=lambda e: e.lo > 0, max_levels=6)
        assert info.value.best is not None
        assert info.value.best.lo <= 0

    def test_requires_a_stopping_rule(self):
        with pytest.raises(ValueError):
            range_enclosure_1d(UPoly([1]))


def _fraction_range_enclosure(p, predicate, max_levels):
    """The Fraction de Casteljau bisection that range_enclosure_1d replaced,
    kept as the oracle for the integer one: every segment carries its
    interval and its normalized control points as Fractions."""

    def halves(control):
        left, right, layer = [control[0]], [control[-1]], list(control)
        while len(layer) > 1:
            layer = [(a + b) / 2 for a, b in zip(layer, layer[1:])]
            left.append(layer[0])
            right.append(layer[-1])
        return tuple(left), tuple(reversed(right))

    m = p.degree
    control = [c / math.comb(m, i) for i, c in enumerate(to_bernstein_plain(p, m).coeffs)]
    zero, one = Fraction(0), Fraction(1)
    segments = [(zero, one, control)]
    samples = [(zero, control[0]), (one, control[-1])]
    min_point, min_value = min(samples, key=lambda s: s[1])
    max_point, max_value = max(samples, key=lambda s: s[1])
    levels = 0
    while True:
        lo = min(min(cps) for _, _, cps in segments)
        hi = max(max(cps) for _, _, cps in segments)
        enc = RangeEnclosure1D(lo, hi, levels, min_value, min_point, max_value, max_point)
        if predicate(enc):
            return enc
        active = [s for s in segments if min(s[2]) < min_value or max(s[2]) > max_value]
        passive = [s for s in segments if s not in active]
        if not active:
            return enc
        if levels >= max_levels:
            raise InconclusiveError("cap", best=enc)
        refined = []
        for a, b, cps in active:
            mid = (a + b) / 2
            left, right = halves(cps)
            refined += [(a, mid, left), (mid, b, right)]
            if left[-1] < min_value:
                min_value, min_point = left[-1], mid
            if left[-1] > max_value:
                max_value, max_point = left[-1], mid
        segments = passive + refined
        levels += 1


def _enclosure_or_best(enclose):
    try:
        return "ok", enclose()
    except InconclusiveError as exc:
        return "inconclusive", exc.best


def _fraction_within(width):
    """The Fraction form of ``_within(width)``."""
    return lambda e: e.min_value - e.lo <= width and e.hi - e.max_value <= width


def _positive_stop(lo, hi, levels, min_value, *_):
    """certify_positive_1d's stop rule on a level's integers."""
    return lo > 0 or min_value <= 0


# The stop rules of the package, each as a rule on a level's integers and in
# its Fraction form on the level's RangeEnclosure1D.
STOPS = {
    "certify_positive_1d": (_positive_stop, lambda e: e.lo > 0 or e.min_value <= 0),
    "nested_q2": (
        _q2_stop,
        lambda e: e.min_value <= 0 or (e.lo > 0 and e.min_value <= 2 * e.lo),
    ),
}


def _stops(mode, width):
    """(integer stop, Fraction predicate) of a mode of the oracle tests."""
    if mode == "within":
        return _within(width), _fraction_within(width)
    return STOPS[mode]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=40), min_size=1, max_size=9)
    .map(UPoly),
    st.sampled_from(["max_width", "predicate", "within", *STOPS]),
    st.fractions(min_value=Fraction(1, 1000), max_value=2),
    st.integers(0, 10),
)
def test_range_enclosure_matches_fraction_oracle(p, mode, width, max_levels):
    # "max_width" and "predicate" are range_enclosure_1d's two adapters;
    # the other modes drive _range_enclosure through an integer stop.
    if mode == "max_width":
        predicate = _fraction_within(width)
        enclose = lambda: range_enclosure_1d(p, width, max_levels=max_levels)
    elif mode == "predicate":
        predicate = STOPS["nested_q2"][1]
        enclose = lambda: range_enclosure_1d(p, predicate=predicate, max_levels=max_levels)
    else:
        stop, predicate = _stops(mode, width)
        (ints,), den = _cleared([p.coeffs])
        enclose = lambda: _enclosure(*_range_enclosure(ints, den, stop, max_levels))
    got = _enclosure_or_best(enclose)
    want = _enclosure_or_best(lambda: _fraction_range_enclosure(p, predicate, max_levels))
    assert got == want


def _passive_range_enclosure(coeffs, den, predicate, max_levels):
    """The integer bisection as it was when dropped segments were kept as
    running bounds, passive_lo and passive_hi, shifted to each new scale:
    the oracle for ``_range_enclosure``, which widens min_value and
    max_value by the live segments alone."""
    m = len(coeffs) - 1
    while m > 0 and coeffs[m] == 0:
        m -= 1
    (ints,), kden = _cleared([coeffs[: m + 1]])
    first = list(_values([a * w for a, w in zip(ints, _weights(m, m))], m))
    scale = kden * math.factorial(m) * den
    min_value, min_point = (first[0], 0) if first[0] <= first[-1] else (first[-1], 1)
    max_value, max_point = (first[0], 0) if first[0] >= first[-1] else (first[-1], 1)
    segments = [(0, first)]
    passive_lo = passive_hi = None
    levels = 0
    while True:
        lows = [min(cps) for _, cps in segments]
        highs = [max(cps) for _, cps in segments]
        lo = min(lows) if passive_lo is None else min(passive_lo, *lows)
        hi = max(highs) if passive_hi is None else max(passive_hi, *highs)
        denom, points = scale << (m * levels), 1 << levels
        enc = RangeEnclosure1D(
            Fraction(lo, denom), Fraction(hi, denom), levels,
            Fraction(min_value, denom), Fraction(min_point, points),
            Fraction(max_value, denom), Fraction(max_point, points),
        )
        if predicate(enc):
            return enc
        active = []
        for seg, low, high in zip(segments, lows, highs):
            if low < min_value or high > max_value:
                active.append(seg)
            else:
                passive_lo = low if passive_lo is None else min(passive_lo, low)
                passive_hi = high if passive_hi is None else max(passive_hi, high)
        if not active:
            return enc
        if levels >= max_levels:
            raise InconclusiveError("cap", best=enc)
        min_value, max_value = min_value << m, max_value << m
        min_point, max_point = min_point << 1, max_point << 1
        if passive_lo is not None:
            passive_lo, passive_hi = passive_lo << m, passive_hi << m
        segments = []
        for j, cps in active:
            left, right = _decasteljau_halves(cps, m)
            segments.append((2 * j, left))
            segments.append((2 * j + 1, right))
            mid_value = left[-1]
            if mid_value < min_value:
                min_value, min_point = mid_value, 2 * j + 1
            if mid_value > max_value:
                max_value, max_point = mid_value, 2 * j + 1
        levels += 1


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=40), min_size=1, max_size=8),
    st.integers(1, 50),
    st.sampled_from(["within", *STOPS]),
    st.fractions(min_value=Fraction(1, 1000), max_value=2),
    st.integers(0, 12),
)
def test_range_enclosure_matches_passive_oracle(coeffs, den, mode, width, max_levels):
    # Every stop rule that calls _range_enclosure, on its integers; the
    # oracle takes the rule's Fraction form.
    stop, predicate = _stops(mode, width)
    (ints,), kden = _cleared([coeffs])
    level = lambda: _range_enclosure(ints, kden * den, stop, max_levels)
    got = _enclosure_or_best(lambda: _enclosure(*level()))
    want = _enclosure_or_best(lambda: _passive_range_enclosure(coeffs, den, predicate, max_levels))
    assert got == want


@st.composite
def levels_st(draw):
    """A bisection level on integers, often with a gap on the boundary of a
    stop rule: min_value - lo or hi - max_value exactly width * scale, or
    min_value exactly 2 lo."""
    width = draw(st.fractions(min_value=Fraction(1, 1000), max_value=4))
    scale = width.denominator * draw(st.integers(1, 10**6))
    edge = width.numerator * (scale // width.denominator)
    gap = st.one_of(st.integers(0, 10**7), st.sampled_from([edge - 1, edge, edge + 1]).filter(
        lambda g: g >= 0
    ))
    lo = draw(st.integers(-(10**7), 10**7))
    min_value = draw(st.one_of(st.just(2 * lo), st.builds(lambda g: lo + g, gap)))
    min_value = max(min_value, lo)
    max_value = draw(st.integers(min_value, min_value + 10**7))
    hi = max_value + draw(gap)
    levels = draw(st.integers(0, 8))
    points = st.integers(0, 1 << levels)
    level = (lo, hi, levels, min_value, draw(points), max_value, draw(points), scale)
    return width, level


@settings(max_examples=500, deadline=None)
@given(levels_st())
def test_integer_stops_decide_as_fraction_forms(drawn):
    # _q2_stop and _within(w) on a level's integers against their Fraction
    # forms on the same level's RangeEnclosure1D.
    width, level = drawn
    enc = _enclosure(*level)
    assert _q2_stop(*level) == STOPS["nested_q2"][1](enc)
    assert _within(width)(*level) == _fraction_within(width)(enc)
    assert _positive_stop(*level) == STOPS["certify_positive_1d"][1](enc)


def _forward_kernel(vectors, q):
    """The forward kernel loop that the difference table replaced, kept as
    the oracle for ``_plain_pass``: with D clearing every denominator,
    out[k] = sum over i <= min(n, k) of C(q-i, k-i) D a[i]."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    out = []
    for v in vectors:
        acc = [0] * (q + 1)
        for i, c in enumerate(v):
            a = c.numerator * (den // c.denominator)
            if a:
                acc[i:] = [s + a * math.comb(q - i, t) for t, s in enumerate(acc[i:])]
        out.append(acc)
    return out, den


# Zeros, integers and fractions over mixed denominators.
forward_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-60, 60).map(Fraction),
    st.fractions(min_value=-60, max_value=60, max_denominator=90),
)


@st.composite
def forward_inputs(draw):
    """p of degrees 0..6 in each variable, at degrees from p's own to 12 above."""
    n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    p = BPoly([[draw(forward_entries) for _ in range(n2 + 1)] for _ in range(n1 + 1)])
    return p, p.n1 + draw(st.integers(0, 12)), p.n2 + draw(st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(forward_inputs())
@example((BPoly([[0]]), 0, 0))  # p = 0 on q = 0 axes
@example((BPoly([[0]]), 7, 3))
@example((BPoly([[Fraction(-3, 7)]]), 0, 12))
@example((BPoly([[Fraction(1, 6), Fraction(-5, 4)], [Fraction(2, 9), 3]]), 1, 1))
@example((BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]]), 14, 2))
def test_forward_pass_matches_kernel_loop(case):
    # The same integers (N, D), not only the same values.
    p, q1, q2 = case
    cols, den = _forward_kernel(list(zip(*p.coeffs)), q1)
    rows, _ = _forward_kernel(list(zip(*cols)), q2)
    assert plain_coeffs(p, q1, q2) == (rows, den)
    assert _coefficient_rows(p, q1) == (list(zip(*cols)), den)
    assert coefficient_bernstein_polys(p, q1) == tuple(
        UPoly([Fraction(v, den) for v in row]) for row in zip(*cols)
    )
    for col in zip(*p.coeffs):
        u = UPoly(col)
        (want,), d = _forward_kernel([u.coeffs], q1)
        outputs, got_d = _plain_pass([u.coeffs], q1)
        assert ([v for v, in outputs], got_d) == (want, d)
        assert to_bernstein_plain(u, q1).coeffs == tuple(Fraction(v, d) for v in want)


class TestCertifyPositive1D:
    def test_constant(self):
        cert = certify_positive_1d(UPoly([1]))
        assert cert.q_star == 2
        assert cert.form.coeffs == (1, 2, 1)

    def test_one_plus_x_spot_values(self):
        cert = certify_positive_1d(UPoly([1, 1]))
        assert cert.q == 8
        assert cert.q_star == 16
        assert len(cert.form.coeffs) == 17
        assert all(c > 0 for c in cert.form.coeffs)
        assert from_bernstein(cert.form) == UPoly([1, 1])

    def test_x_refuted_at_left_endpoint(self):
        with pytest.raises(NotPositiveError) as info:
            certify_positive_1d(UPoly([0, 1]))
        assert info.value.witness == 0
        assert info.value.value == 0

    def test_interior_dyadic_zero_refuted(self):
        p = UPoly([Fraction(1, 4), -1, 1])  # (x - 1/2)**2
        with pytest.raises(NotPositiveError) as info:
            certify_positive_1d(p)
        assert info.value.witness == Fraction(1, 2)

    def test_negative_dip_refuted_with_witness(self):
        p = UPoly([Fraction(1, 16), -1, 1])  # min negative near 1/2
        with pytest.raises(NotPositiveError) as info:
            certify_positive_1d(p)
        w = info.value.witness
        assert p.eval(w) <= 0

    def test_nondyadic_zero_is_inconclusive(self):
        p = UPoly([Fraction(1, 9), Fraction(-2, 3), 1])  # (x - 1/3)**2
        with pytest.raises(InconclusiveError):
            certify_positive_1d(p, max_levels=6)

    def test_negative_level_cap_rejected(self):
        for run in (
            lambda: certify_positive_1d(UPoly([1, 1]), max_levels=-1),
            lambda: range_enclosure_1d(UPoly([1, 1]), 1, max_levels=-1),
        ):
            with pytest.raises(ValueError, match="^max_levels must be nonnegative$"):
                run()

    def test_insufficient_degree_is_certification_error(self, monkeypatch):
        # (x - 1/2)^2 + 1/100 has plain coefficients 13/50, -12/25, 13/50 at
        # degree 2, which a degree bound of 1 (q_star = 2) would give.
        monkeypatch.setattr(univariate, "powers_reznick_degree", lambda *args: 1)
        with pytest.raises(CertificationError) as info:
            certify_positive_1d(UPoly([Fraction(26, 100), -1, 1]))
        assert type(info.value) is CertificationError
        assert str(info.value) == "certified lower bound produced a nonpositive coefficient at 1"

    def test_lambda_bound_is_valid(self):
        rng = random.Random(5)
        p = UPoly([2, -1, Fraction(1, 2), Fraction(1, 3)])
        cert = certify_positive_1d(p)
        for _ in range(50):
            x = random_unit_fraction(rng)
            assert p.eval(x) >= cert.lambda_lower


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=24), st.integers(0, 6))
@example([0], 0)
@example([5], 3)
def test_differences_invert_values(c, extra):
    # One table, run forwards by _values and backwards by _differences; past
    # n the binomial-basis coefficients of a degree-n table are zeros.
    n = len(c) - 1
    assert _differences(_values(c, n)) == c
    assert list(_values(_differences(c), n)) == c
    assert _differences(_values(c, n + extra)) == c + [0] * extra


def _signed_kernel(vectors, q):
    """The signed-binomial loop that the backwards table replaced, kept as
    the oracle for ``_plain_kernel``: with D clearing every denominator,
    out[k] = sum over i <= min(n, k) of (-1)**(k-i) C(q-i, k-i) D a[i]."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    out = []
    for v in vectors:
        acc = [0] * (q + 1)
        for i, c in enumerate(v):
            a = c.numerator * (den // c.denominator)
            if a:
                acc[i:] = [s + a * (-1) ** t * math.comb(q - i, t) for t, s in enumerate(acc[i:])]
        out.append(acc)
    return out, den


@st.composite
def inverse_inputs(draw):
    """One to three vectors of 1..q+1 entries each, at q = 0..14."""
    q = draw(st.integers(0, 14))
    vector = st.lists(forward_entries, min_size=1, max_size=q + 1)
    return draw(st.lists(vector, min_size=1, max_size=3)), q


@settings(max_examples=300, deadline=None)
@given(inverse_inputs())
@example(([[Fraction(0)]], 0))
@example(([[Fraction(-3, 7)]], 0))  # q = 0
@example(([[Fraction(1, 6)], [Fraction(2, 9), Fraction(3), Fraction(0)]], 5))  # shorter than q + 1
@example(([[Fraction(1, 8), Fraction(0), Fraction(1)]], 2))
def test_inverse_kernel_matches_signed_binomial_loop(case):
    # The same integers (N, D), not only the same values.
    vectors, q = case
    assert _plain_kernel(vectors, q) == _signed_kernel(vectors, q)


def test_passes_compute_each_weight_row_once():
    # x1**2 - x1 + 1 + x2 at (526, 20): the x1 pass asks for _weights(2, 526)
    # once per column and the x2 pass for _weights(1, 20) once per row; each
    # is computed once.
    _weights.cache_clear()
    rows, _ = plain_rows(BPoly([[1, 1], [-1, 0], [1, 0]]), 526, 20)
    assert sum(1 for _ in rows) == 527
    assert _weights.cache_info().misses == 2
