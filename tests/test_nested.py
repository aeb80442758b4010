"""Nested certification: coefficient polynomials and the two degree stages."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from berncert import (
    BPoly,
    DegreeError,
    InconclusiveError,
    Method,
    NotPositiveError,
    PositivityCertificate,
    RangeEnclosure1D,
    UPoly,
    certify_nested,
    coefficient_bernstein_polys,
    expand_plain_2d,
    goursat_coefficients,
    minimum_lower_bound,
    nested_q1,
    nested_q2,
    powers_reznick_degree,
    range_enclosure_1d,
    verify,
)
from berncert import nested, univariate
from berncert.certificates import plain_coeffs
from berncert.nested import NestedDegreeReport, _coefficient_rows, _q2_stop
from berncert.univariate import (
    MAX_GRID_DEGREE,
    _decasteljau_halves,
    _enclosure,
    _goursat,
    _values,
    _weights,
)

from corpus import BIVARIATE_CORPUS, random_unit_fraction

ONE = BPoly([[1]])
PLANE = BPoly([[1, 1], [1, 0]])  # 1 + x1 + x2
WORKED = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])
SPHERE = BPoly([[1, 0, 1], [0, 0, 0], [1, 0, 0]])


class TestCoefficientBernsteinPolys:
    def test_constant(self):
        assert coefficient_bernstein_polys(ONE, 2) == (
            UPoly([1]), UPoly([2]), UPoly([1])
        )

    def test_product_monomial(self):
        p = BPoly([[0, 0], [0, 1]])  # x1 x2
        assert coefficient_bernstein_polys(p, 2) == (
            UPoly([0]), UPoly([0, 1]), UPoly([0, 1])
        )

    def test_constant_in_x1(self):
        p = BPoly([[0, 0, 1]])  # x2^2
        assert coefficient_bernstein_polys(p, 1) == (
            UPoly([0, 0, 1]), UPoly([0, 0, 1])
        )

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            coefficient_bernstein_polys(SPHERE, 1)

    def test_degree_past_the_grid(self):
        # The x1 pass lists rows up to q1: past MAX_GRID_DEGREE it is
        # refused, not left to fail inside the kernel.
        q1 = MAX_GRID_DEGREE + 1
        with pytest.raises(DegreeError) as exc:
            nested._coefficient_rows(BPoly([[1], [1]]), q1)
        assert str(exc.value) == f"degree {q1} is past the largest grid degree {q1 - 1}"

    def test_expansion_identity_at_random_points(self):
        rng = random.Random(41)
        for p in (PLANE, SPHERE, WORKED):
            for q1 in (p.n1, p.n1 + 2, 5):
                apolys = coefficient_bernstein_polys(p, q1)
                for _ in range(100):
                    x1 = random_unit_fraction(rng)
                    x2 = random_unit_fraction(rng)
                    total = sum(
                        (
                            a.eval(x2) * x1**i * (1 - x1) ** (q1 - i)
                            for i, a in enumerate(apolys)
                        ),
                        Fraction(0),
                    )
                    assert total == p.eval(x1, x2)


class TestNestedQ1:
    def test_constant(self):
        q1, report = nested_q1(ONE)
        assert q1 == 2
        assert report.lambda_lower == 1

    def test_plane_frozen_values(self):
        q1, report = nested_q1(PLANE)
        assert report.lambda_lower == 1  # exact: minimum at the origin
        assert report.l_upper == 2
        assert q1 == 16  # 2 * (3*1 + ceil(2*1*2/1) + 1)

    def test_plane_bounds_against_grid(self):
        _, report = nested_q1(PLANE)
        rng = random.Random(43)
        for _ in range(200):
            x1, x2 = random_unit_fraction(rng), random_unit_fraction(rng)
            assert PLANE.eval(x1, x2) >= report.lambda_lower
        # l_upper dominates |B_0| = |2 a_1| = 2 and |B_1| = |2 x2| on a grid
        rows = [UPoly(row) for row in PLANE.coeffs]
        for k in range(51):
            x2 = Fraction(k, 50)
            b0 = 2 * rows[1].eval(x2)
            b1 = 2 * rows[0].eval(x2) - 2 * rows[1].eval(x2)
            assert abs(b0) <= report.l_upper
            assert abs(b1) <= report.l_upper

    def test_worked_example_structural(self):
        q1, report = nested_q1(WORKED)
        assert q1 % 2 == 0
        assert q1 >= 2 * WORKED.n1
        assert report.lambda_lower > 0

    def test_zero_face_refuted(self):
        with pytest.raises(NotPositiveError):
            nested_q1(BPoly([[0], [1]]))  # p = x1 vanishes on a face


def _fraction_q1(p, lam, max_levels):
    """The Fraction first stage that nested_q1 replaced, kept as its oracle:
    one Goursat transform per column of p, then a range enclosure of each
    coefficient polynomial B_k(x2) as a UPoly.  Returns (q1, L)."""
    cols = [goursat_coefficients(UPoly(c), n=p.n1) for c in zip(*p.coeffs)]
    bound = Fraction(0)
    for row in zip(*cols):
        enc = range_enclosure_1d(UPoly(row), max_width=lam, max_levels=max_levels)
        bound = max(bound, abs(enc.lo), abs(enc.hi))
    return 2 * powers_reznick_degree(p.n1, bound, lam), bound


def _q1_outcome(run):
    try:
        q1, l_upper = run()
    except InconclusiveError as exc:
        return "inconclusive", exc.best
    return "ok", (q1, l_upper)


def _assert_q1_matches_oracle(p, lam, max_levels=64):
    def integer_stage():
        q1, report = nested_q1(p, lambda_lower=lam, max_levels=max_levels)
        assert report.lambda_lower == lam
        return q1, report.l_upper

    got = _q1_outcome(integer_stage)
    assert got == _q1_outcome(lambda: _fraction_q1(p, lam, max_levels))


entries = st.one_of(st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=12))
lambdas = st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=10**4).filter(
    lambda x: x > 0
)


@st.composite
def sparse_polys(draw):
    """p of degrees 0..4 in each variable, often with a row or a column
    entirely zero (a trailing one is trimmed, lowering the degree)."""
    n1, n2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    zero_rows = draw(st.sets(st.integers(0, n1), max_size=1))
    zero_cols = draw(st.sets(st.integers(0, n2), max_size=1))
    return BPoly(
        [
            [0 if i in zero_rows or j in zero_cols else draw(entries) for j in range(n2 + 1)]
            for i in range(n1 + 1)
        ]
    )


class TestNestedQ1Oracle:
    """The integer first stage equals the Fraction one it replaced."""

    @pytest.mark.parametrize("name, p", BIVARIATE_CORPUS, ids=[n for n, _ in BIVARIATE_CORPUS])
    def test_corpus(self, name, p):
        lam, _ = minimum_lower_bound(p)
        _assert_q1_matches_oracle(p, lam)

    @settings(max_examples=200, deadline=None)
    @given(sparse_polys(), st.booleans(), lambdas, st.integers(0, 4))
    def test_random(self, p, certified_lambda, lam, max_levels):
        if certified_lambda:
            # Lifting p by the sum of its coefficient magnitudes plus one
            # makes it positive on the box, so it usually has a lambda.
            lift = sum(abs(a) for row in p.coeffs for a in row) + 1
            p = BPoly([[p.coeffs[0][0] + lift, *p.coeffs[0][1:]], *p.coeffs[1:]])
            try:
                lam, _ = minimum_lower_bound(p, max_doublings=4)
            except InconclusiveError:
                pass  # keep the drawn lambda
        _assert_q1_matches_oracle(p, lam, max_levels)


def _fraction_q2(p, q1, report, max_levels):
    """A Fraction second stage, the oracle for nested_q2: each coefficient
    polynomial A_i(x2) enclosed as a UPoly under the Fraction form of the
    stop rule, its Goursat maximum taken on Fractions, and the worst row
    picked by Fraction division, the first of equal ratios."""
    infs, maxbs = [], []
    for i, a in enumerate(coefficient_bernstein_polys(p, q1)):
        try:
            enc = range_enclosure_1d(
                a,
                predicate=lambda e: e.min_value <= 0 or (e.lo > 0 and e.min_value <= 2 * e.lo),
                max_levels=max_levels,
            )
        except InconclusiveError as exc:
            reason = f"could not be certified positive within {max_levels} bisection levels"
            return "inconclusive", f"coefficient polynomial {i} {reason}", exc.best
        if enc.min_value <= 0 or enc.lo <= 0:
            reason = f"is not certifiably positive (value {enc.min_value} at {enc.min_point})"
            return "inconclusive", f"coefficient polynomial {i} {reason}", enc
        infs.append(enc.lo)
        maxbs.append(max(abs(c) for c in goursat_coefficients(a, n=p.n2)))
    maxb, inf = max(zip(maxbs, infs), key=lambda row: row[0] / row[1])
    q2 = 2 * powers_reznick_degree(p.n2, maxb, inf)
    fields = (report.q1, report.lambda_lower, report.l_upper, q2, tuple(infs), tuple(maxbs))
    return "ok", q2, fields


def _q2_outcome(p, q1, report, max_levels):
    try:
        q2, full = nested_q2(p, q1, report, max_levels)
    except InconclusiveError as exc:
        return "inconclusive", str(exc), exc.best
    return "ok", q2, full._values()


class TestNestedQ2Oracle:
    """The integer second stage equals a Fraction one: per-row bounds,
    worst row and q2."""

    @pytest.mark.parametrize("name, p", BIVARIATE_CORPUS, ids=[n for n, _ in BIVARIATE_CORPUS])
    def test_corpus(self, name, p):
        q1, report = nested_q1(p)
        got = _q2_outcome(p, q1, report, 64)
        assert got[0] == "ok"
        assert got == _fraction_q2(p, q1, report, 64)

    @settings(max_examples=80, deadline=None)
    @given(sparse_polys(), st.booleans(), st.integers(0, 40), st.integers(0, 4))
    @example(WORKED, False, 2438, 0)  # row 158 at the level cap, as in TestQ2Inconclusive
    def test_random(self, p, lifted, extra, max_levels):
        # Lifted by the sum of its coefficient magnitudes plus one, p is at
        # least 1 on the box, and its rows are positive.  Unlifted, or at a
        # low level cap, a row may give up either way, and that is compared.
        if lifted:
            lift = sum(abs(a) for row in p.coeffs for a in row) + 1
            p = BPoly([[p.coeffs[0][0] + lift, *p.coeffs[0][1:]], *p.coeffs[1:]])
        _, report = nested_q1(p, lambda_lower=1)
        q1 = p.n1 + extra
        assert _q2_outcome(p, q1, report, max_levels) == _fraction_q2(p, q1, report, max_levels)


def _per_row_range_enclosure(coeffs, den, stop, max_levels):
    """The integer enclosure loop as it was when every level, level 0 too,
    built its segments' bounds and its live segments before it returned:
    the oracle for ``univariate._range_enclosure``."""
    if max_levels < 0:
        raise ValueError("max_levels must be nonnegative")
    m = len(coeffs) - 1
    while m > 0 and coeffs[m] == 0:
        m -= 1
    first = list(_values([a * w for a, w in zip(coeffs, _weights(m, m))], m))
    scale = math.factorial(m) * den
    min_value, min_point = (first[0], 0) if first[0] <= first[-1] else (first[-1], 1)
    max_value, max_point = (first[0], 0) if first[0] >= first[-1] else (first[-1], 1)
    segments = [(0, first)]
    levels = 0
    while True:
        lows = [min(cps) for _, cps in segments]
        highs = [max(cps) for _, cps in segments]
        lo, hi = min(min_value, *lows), max(max_value, *highs)
        level = (lo, hi, levels, min_value, min_point, max_value, max_point, scale << m * levels)
        if stop(*level):
            return level
        active = [
            seg
            for seg, low, high in zip(segments, lows, highs)
            if low < min_value or high > max_value
        ]
        if not active:
            return level
        if levels >= max_levels:
            raise InconclusiveError(
                f"range enclosure not tight enough after {max_levels} bisection levels",
                best=_enclosure(*level),
            )
        min_value, max_value = min_value << m, max_value << m
        min_point, max_point = min_point << 1, max_point << 1
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


def _per_row_q2(p, q1, report, max_levels):
    """Stage 2 as it was, one ``_goursat`` table per x1 row and the enclosure
    loop above: the oracle for ``nested_q2``, which takes the rows' Goursat
    vectors from the x1 pass."""
    rows, den = _coefficient_rows(p, q1)
    goursat_rows, _ = _goursat(rows, p.n2)
    infs, maxbs = [], []
    for i, (row, e) in enumerate(zip(rows, goursat_rows)):
        try:
            level = _per_row_range_enclosure(row, den, _q2_stop, max_levels)
        except InconclusiveError as exc:
            raise InconclusiveError(
                f"coefficient polynomial {i} could not be certified positive "
                f"within {max_levels} bisection levels",
                best=exc.best,
            ) from exc
        lo, _, _, min_value, _, _, _, scale = level
        if min_value <= 0 or lo <= 0:
            enc = _enclosure(*level)
            raise InconclusiveError(
                f"coefficient polynomial {i} is not certifiably positive "
                f"(value {enc.min_value} at {enc.min_point})",
                best=enc,
            )
        maxb = max(map(abs, e))
        infs.append(Fraction(lo, scale))
        maxbs.append(Fraction(maxb, den))
        if i == 0 or maxb * scale * worst_lo > worst_num * lo:
            worst, worst_num, worst_lo = i, maxb * scale, lo
    q2 = 2 * powers_reznick_degree(p.n2, maxbs[worst], infs[worst])
    return q2, NestedDegreeReport(
        report.q1, report.lambda_lower, report.l_upper, q2, tuple(infs), tuple(maxbs)
    )


def _q2_or_error(run):
    try:
        q2, full = run()
    except InconclusiveError as exc:
        return type(exc), str(exc), exc.best
    return q2, full._values()


ONE_PLUS_X1_X2_SQUARED = BPoly([[1, 0, 0], [0, 0, 1]])  # row 0 is 1: top coefficients 0
DIP = BPoly([[Fraction(3, 8), -1, 1]])  # (x2 - 1/2)**2 + 1/8: level 0 straddles 0


class TestNestedQ2PerRowOracle:
    """nested_q2 equals stage 2 as it was, row by row: the same q2 and
    report, or the same InconclusiveError text and enclosure."""

    @settings(max_examples=120, deadline=None)
    @given(sparse_polys(), st.booleans(), st.integers(0, 40), st.integers(0, 4))
    @example(ONE_PLUS_X1_X2_SQUARED, False, 0, 4)
    @example(ONE_PLUS_X1_X2_SQUARED, False, 9, 0)
    @example(DIP, False, 3, 4)  # every row bisects once
    @example(DIP, False, 3, 0)  # and gives up at a cap of 0
    @example(WORKED, False, 0, 4)  # row 1 is not positive
    @example(WORKED, False, 2438, 0)  # row 158 at the level cap
    def test_random(self, p, lifted, extra, max_levels):
        if lifted:
            lift = sum(abs(a) for row in p.coeffs for a in row) + 1
            p = BPoly([[p.coeffs[0][0] + lift, *p.coeffs[0][1:]], *p.coeffs[1:]])
        _, report = nested_q1(p, lambda_lower=1)
        q1 = p.n1 + extra
        got = _q2_or_error(lambda: nested_q2(p, q1, report, max_levels))
        assert got == _q2_or_error(lambda: _per_row_q2(p, q1, report, max_levels))


def test_stage2_transforms_p_not_its_rows(monkeypatch):
    # x1**2 - x1 + 1 + x2 at q1 = 526: one difference table per row of p
    # (n1 + 1 = 3), not one per x1 row (527).
    p = BPoly([[1, 1], [-1, 0], [1, 0]])
    _, report = nested_q1(p)
    calls = []
    differences = univariate._differences
    monkeypatch.setattr(
        univariate, "_differences", lambda values: calls.append(1) or differences(values)
    )
    nested_q2(p, 526, report)
    assert len(calls) == p.n1 + 1 == 3


class TestNestedQ2:
    def test_constant(self):
        q1, report = nested_q1(ONE)
        q2, full = nested_q2(ONE, q1, report)
        assert q2 == 2
        assert full.per_i_inf_lower == (1, 2, 1)
        # Stage 2 keeps stage 1's fields and fills the three it left None.
        assert report._values()[3:] == (None, None, None)
        assert full._values()[:3] == report._values()[:3]

    def test_one_plus_x2_hand_formula(self):
        p = BPoly([[1, 1]])  # 1 + x2
        q1, report = nested_q1(p)
        assert q1 == 2
        q2, full = nested_q2(p, q1, report)
        n2 = p.n2
        worst = max(
            math.ceil(Fraction(2 * n2 * n2) * maxb / inf)
            for maxb, inf in zip(full.per_i_maxb_upper, full.per_i_inf_lower)
        )
        assert q2 == 2 * (3 * n2 + worst + 1)
        assert q2 == 16
        # every coefficient polynomial is a positive multiple of 1 + x2
        apolys = coefficient_bernstein_polys(p, q1)
        assert apolys == (UPoly([1, 1]), UPoly([2, 2]), UPoly([1, 1]))

    def test_sphere_structural(self):
        q1, report = nested_q1(SPHERE)
        q2, full = nested_q2(SPHERE, q1, report)
        assert q2 % 2 == 0
        assert q2 >= 2 * SPHERE.n2
        assert all(v > 0 for v in full.per_i_inf_lower)

    def test_maxb_matches_padded_goursat(self):
        q1, report = nested_q1(PLANE)
        q2, full = nested_q2(PLANE, q1, report)
        apolys = coefficient_bernstein_polys(PLANE, q1)
        for apoly, maxb in zip(apolys, full.per_i_maxb_upper):
            e = goursat_coefficients(apoly, n=PLANE.n2)
            assert maxb == max(abs(c) for c in e)


class TestCertifyNested:
    def test_constant_outer_product(self):
        cert = certify_nested(ONE)
        assert cert.q1 == cert.q2 == 2
        assert cert.method is Method.NESTED
        assert cert.coefficients == ((1, 2, 1), (2, 4, 2), (1, 2, 1))
        assert verify(ONE, cert)

    def test_plane_certificate(self):
        cert = certify_nested(PLANE)
        assert all(c > 0 for row in cert.coefficients for c in row)
        assert verify(PLANE, cert)
        expansion = expand_plain_2d(cert.coefficients, cert.q1, cert.q2)
        rng = random.Random(47)
        for _ in range(50):
            x1, x2 = random_unit_fraction(rng), random_unit_fraction(rng)
            assert expansion.eval(x1, x2) == PLANE.eval(x1, x2)

    def test_zero_face_refuted(self):
        with pytest.raises(NotPositiveError):
            certify_nested(BPoly([[0], [1]]))

    def test_degree_parity_on_corpus_sample(self):
        for name, p in BIVARIATE_CORPUS[:12]:
            cert = certify_nested(p)
            assert cert.q1 % 2 == 0 and cert.q2 % 2 == 0, name

    def test_monotone_safety(self):
        # A smaller valid lambda gives a larger q1, and the degrees still
        # certify.
        baseline = certify_nested(PLANE)
        q1, report = nested_q1(PLANE, lambda_lower=Fraction(1, 2))
        assert q1 > baseline.q1
        q2, report = nested_q2(PLANE, q1, report)
        nums, den = plain_coeffs(PLANE, q1, q2)
        worse = PositivityCertificate.from_integers(q1, q2, nums, den, Method.NESTED, report)
        assert verify(PLANE, worse)

    def test_report_carried(self):
        cert = certify_nested(SPHERE)
        assert cert.report.q2 == cert.q2
        assert cert.report.lambda_lower > 0
        assert len(cert.report.per_i_inf_lower) == cert.q1 + 1


class TestNegativeCaps:
    def test_negative_doubling_cap_rejected(self):
        with pytest.raises(ValueError, match="^max_doublings must be nonnegative$"):
            certify_nested(SPHERE, max_doublings=-1)

    def test_negative_level_cap_rejected(self):
        # Not a cap of 0: the first range enclosure refuses it.
        with pytest.raises(ValueError, match="^max_levels must be nonnegative$"):
            certify_nested(SPHERE, max_levels=-1)

    def test_nonpositive_lambda_lower_rejected(self):
        with pytest.raises(ValueError, match="^lambda_lower must be positive$"):
            nested_q1(SPHERE, lambda_lower=0)


class TestQ2Inconclusive:
    """Stage 2's two ways to give up, each carrying the row's enclosure."""

    def test_row_not_certifiably_positive(self):
        # At q1 = 2, A_1(x2) = 1/8 + x2^2 - x2 has value -1/4 at 1/2.
        _, report = nested_q1(WORKED)
        with pytest.raises(InconclusiveError) as exc:
            nested_q2(WORKED, 2, report)
        assert str(exc.value) == (
            "coefficient polynomial 1 is not certifiably positive (value -1/4 at 1/2)"
        )
        assert isinstance(exc.value.best, RangeEnclosure1D)

    def test_row_at_the_level_cap(self):
        q1, report = nested_q1(WORKED)
        assert q1 == 2440
        with pytest.raises(InconclusiveError) as exc:
            nested_q2(WORKED, q1, report, max_levels=0)
        assert str(exc.value) == (
            "coefficient polynomial 158 could not be certified positive "
            "within 0 bisection levels"
        )
        assert isinstance(exc.value.best, RangeEnclosure1D)
