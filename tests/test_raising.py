"""Degree-raising machinery: coefficients, enclosures, delta, certification."""

import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from berncert import (
    BPoly,
    DegreeError,
    InconclusiveError,
    Method,
    NotPositiveError,
    PositivityCertificate,
    bern_coeffs,
    bernstein_approximation,
    certify_raise,
    delta,
    enclosure_bound,
    gamma_bounds,
    min_coeff,
    min_enclosure,
    minimum_lower_bound,
    verify,
)

from berncert import raising
from berncert.polys import grid_values
from berncert.raising import min_enclosure_to_width, plain_coeffs
from berncert.univariate import _differences, _values

from corpus import BIVARIATE_CORPUS, random_fraction, random_unit_fraction

WORKED = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])  # (x1-x2)^2 + 1/8
SPHERE = BPoly([[1, 0, 1], [0, 0, 0], [1, 0, 0]])  # x1^2 + x2^2 + 1


def _sympy_bernstein_coeffs(p: BPoly, q1: int, q2: int):
    """Independent normalized coefficients via sympy linear solve."""
    x1, x2 = sympy.symbols("x1 x2")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x1**i * x2**j
        for i, row in enumerate(p.coeffs)
        for j, c in enumerate(row)
    )
    unknowns = sympy.symbols(f"c0:{(q1 + 1) * (q2 + 1)}")
    basis_sum = sum(
        unknowns[k * (q2 + 1) + l]
        * sympy.binomial(q1, k) * x1**k * (1 - x1) ** (q1 - k)
        * sympy.binomial(q2, l) * x2**l * (1 - x2) ** (q2 - l)
        for k in range(q1 + 1)
        for l in range(q2 + 1)
    )
    sol = sympy.solve(sympy.Poly(sympy.expand(basis_sum - expr), x1, x2).coeffs(), unknowns)
    return [
        [Fraction(int(sympy.nsimplify(sol[unknowns[k * (q2 + 1) + l]]).p),
                  int(sympy.nsimplify(sol[unknowns[k * (q2 + 1) + l]]).q))
         for l in range(q2 + 1)]
        for k in range(q1 + 1)
    ]


class TestBernCoeffs:
    def test_partition_of_unity(self):
        one = BPoly([[1]])
        for q in (1, 2, 3, 5, 8, 16):
            b = bern_coeffs(one, q, q)
            assert all(c == 1 for row in b.coeffs for c in row)

    def test_sphere_formula(self):
        b = bern_coeffs(SPHERE, 2, 2)
        for k in range(3):
            for l in range(3):
                assert b.coeffs[k][l] == math.comb(k, 2) + math.comb(l, 2) + 1
        assert b.coeffs[1][1] == 1
        assert b.coeffs[2][2] == 3

    def test_worked_example_entry(self):
        b = bern_coeffs(WORKED, 2, 2)
        assert b.coeffs[1][1] == Fraction(-3, 8)

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            bern_coeffs(SPHERE, 1, 2)

    def test_against_sympy_solve(self):
        b = bern_coeffs(WORKED, 3, 2)
        assert [list(r) for r in b.coeffs] == _sympy_bernstein_coeffs(WORKED, 3, 2)

    def test_plain_normalized_roundtrip(self):
        nums, den = plain_coeffs(WORKED, 3, 4)
        b = bern_coeffs(WORKED, 3, 4)
        for k in range(4):
            for l in range(5):
                plain = b.coeffs[k][l] * (math.comb(3, k) * math.comb(4, l))
                assert plain == Fraction(nums[k][l], den)


class TestMinCoeff:
    def test_all_ones(self):
        assert min_coeff(bern_coeffs(BPoly([[1]]), 3, 3)) == 1

    def test_worked_example(self):
        assert min_coeff(bern_coeffs(WORKED, 2, 2)) == Fraction(-3, 8)

    def test_sphere(self):
        assert min_coeff(bern_coeffs(SPHERE, 2, 2)) == 1


entries = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def signed_polys(draw, max_degree=3):
    """p with signed rational entries, zeros included, degrees 0..max_degree each."""
    n1, n2 = draw(st.integers(0, max_degree)), draw(st.integers(0, max_degree))
    return BPoly([[draw(entries) for _ in range(n2 + 1)] for _ in range(n1 + 1)])


def _gamma_loop(p):
    """The oracle for ``gamma_bounds``: the sums over p's entries, one
    Fraction at a time."""
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


class TestGamma:
    def test_constant(self):
        assert gamma_bounds(BPoly([[1]])) == (0, 0)

    def test_worked_example(self):
        assert gamma_bounds(WORKED) == (1, 1)

    def test_sphere(self):
        assert gamma_bounds(SPHERE) == (1, 1)

    @settings(max_examples=100, deadline=None)
    @given(signed_polys(max_degree=5))
    @example(BPoly([[0]]))
    @example(BPoly([[Fraction(-3, 4), Fraction(5, 6)], [Fraction(7, 10), -2]]))  # n1 = n2 = 1
    @example(BPoly([[1], [0], [Fraction(-1, 3)], [Fraction(2, 7)]]))  # n2 = 0
    @example(BPoly([[Fraction(1, 6), 0, 0, Fraction(-5, 9)]]))  # n1 = 0, zeros inside
    @example(BPoly([[0, 0, Fraction(-1, 2**200)], [0, 0, 0], [Fraction(3, 5**90), 0, 7]]))
    def test_matches_fraction_loop(self, p):
        gammas = gamma_bounds(p)
        assert gammas == _gamma_loop(p)
        assert all(type(g) is Fraction for g in gammas)

    def test_report_pairs(self):
        # mixed denominators and signs: gamma1 = (3/7*2 + |-5/6|*2)/2, gamma2 = |-1/4|*2/2
        p = BPoly([[2, 0, Fraction(-1, 4)], [0, 0, 0], [Fraction(3, 7), Fraction(-5, 6), 0]])
        assert gamma_bounds(p) == (Fraction(53, 42), Fraction(1, 4))
        cert = certify_raise(p)
        enc = cert.report.enclosure
        assert cert.report.pairs() == (
            ("doublings", cert.report.doublings),
            ("c_min", enc.c_min),
            ("bound", enclosure_bound(Fraction(53, 42), Fraction(1, 4), cert.q1, cert.q2)),
            ("gamma1", Fraction(53, 42)),
            ("gamma2", Fraction(1, 4)),
        )

    @pytest.mark.parametrize(
        "run",
        [
            lambda: certify_raise(WORKED),
            lambda: minimum_lower_bound(WORKED),
            lambda: min_enclosure_to_width(WORKED, Fraction(1, 100)),
        ],
        ids=["certify_raise", "minimum_lower_bound", "min_enclosure_to_width"],
    )
    def test_computed_once_per_walk(self, run, monkeypatch):
        calls, gammas = [], raising.gamma_bounds

        def counting(p):
            calls.append(p)
            return gammas(p)

        monkeypatch.setattr(raising, "gamma_bounds", counting)
        run()
        assert len(calls) == 1


class TestMinEnclosure:
    def test_sphere_at_two(self):
        enc = min_enclosure(SPHERE, 2, 2)
        assert enc.lo == 1 and enc.hi == Fraction(3, 2)

    def test_constant_zero_width(self):
        enc = min_enclosure(BPoly([[1]]), 5, 5)
        assert enc.lo == enc.hi == 1

    def test_worked_example_at_sixteen(self):
        enc = min_enclosure(WORKED, 16, 16)
        assert enc.hi - enc.lo == Fraction(30, 256)
        assert enc.lo > 0
        b = bern_coeffs(WORKED, 16, 16)
        assert enc.lo == min(c for row in b.coeffs for c in row)

    def test_floor_enforced(self):
        with pytest.raises(DegreeError):
            min_enclosure(BPoly([[1]]), 1, 2)

    def test_true_minimum_inside(self):
        # min over box of WORKED is 1/8 on the diagonal
        enc = min_enclosure(WORKED, 8, 8)
        assert enc.lo <= Fraction(1, 8) <= enc.hi


class TestDelta:
    def test_zero_exponents(self):
        assert delta(0, 0, 1, 1, 2, 2) == 0

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="^degrees must be at least 1$"):
            delta(0, 0, 0, 0, 0, 2)

    def test_tight_case(self):
        assert delta(2, 0, 1, 0, 2, 2) == Fraction(1, 4)
        bound = Fraction(2 - 1, 4) * Fraction(2 * 1, 2)
        assert delta(2, 0, 1, 0, 2, 2) == bound

    def test_linear_exponent_vanishes(self):
        for q1 in range(1, 6):
            for k in range(q1 + 1):
                assert delta(1, 0, k, 0, q1, 3) == 0

    def test_bounds_small_range(self):
        for q1 in range(2, 6):
            for q2 in range(2, 6):
                for i in range(0, min(4, q1) + 1):
                    for j in range(0, min(4, q2) + 1):
                        cap = Fraction(q1 - 1, q1 * q1) * Fraction(i * (i - 1), 2) + \
                            Fraction(q2 - 1, q2 * q2) * Fraction(j * (j - 1), 2)
                        for k in range(q1 + 1):
                            for l in range(q2 + 1):
                                d = delta(i, j, k, l, q1, q2)
                                assert 0 <= d <= cap

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            delta(3, 0, 1, 0, 2, 2)  # i > q1
        with pytest.raises(ValueError):
            delta(1, 0, 5, 0, 2, 2)  # k > q1


class TestBernsteinApproximation:
    def test_reproduces_constants(self):
        assert bernstein_approximation(BPoly([[1]]), 3, 2) == BPoly([[1]])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="^degrees must be at least 1$"):
            bernstein_approximation(BPoly([[1]]), 3, 0)

    def test_reproduces_linear(self):
        x1 = BPoly([[0], [1]])
        assert bernstein_approximation(x1, 4, 2) == x1

    def test_square_classic_value(self):
        x1sq = BPoly([[0], [0], [1]])
        assert bernstein_approximation(x1sq, 2, 2) == BPoly(
            [[0], [Fraction(1, 2)], [Fraction(1, 2)]]
        )

    def test_error_coefficients_match_delta(self):
        i, j, q1, q2 = 2, 1, 3, 2
        mono = BPoly([[0] * (j) + [1] if r == i else [0] for r in range(i + 1)])
        assert mono.coeffs[i][j] == 1
        rows = [list(row) for row in bernstein_approximation(mono, q1, q2).coeffs]
        rows[i][j] -= 1  # the approximation minus mono = x1**i * x2**j
        d = bern_coeffs(BPoly(rows), q1, q2)
        for k in range(q1 + 1):
            for l in range(q2 + 1):
                assert d.coeffs[k][l] == delta(i, j, k, l, q1, q2)


class TestSandwichAndMonotonicity:
    def test_min_coeff_below_values(self):
        rng = random.Random(31)
        for _ in range(8):
            p = BPoly([[random_fraction(rng) for _ in range(3)] for _ in range(3)])
            c = min_coeff(bern_coeffs(p, 4, 4))
            for _ in range(50):
                x1, x2 = random_unit_fraction(rng), random_unit_fraction(rng)
                assert c <= p.eval(x1, x2)

    def test_doubling_never_decreases_min_coeff(self):
        rng = random.Random(37)
        for _ in range(6):
            p = BPoly([[random_fraction(rng) for _ in range(3)] for _ in range(3)])
            prev = min_coeff(bern_coeffs(p, 2, 2))
            for q in (4, 8, 16):
                cur = min_coeff(bern_coeffs(p, q, q))
                assert cur >= prev
                prev = cur


class TestEnclosureAgainstGrid:
    def test_grid_minimum_respects_enclosure(self):
        from berncert.polys import grid_values

        from corpus import BIVARIATE_CORPUS

        pts = [Fraction(k, 100) for k in range(101)]
        for name, p in list(BIVARIATE_CORPUS)[:8] + [("worked", WORKED)]:
            q1 = max(p.n1, 2)
            q2 = max(p.n2, 2)
            enc = min_enclosure(p, q1, q2)
            grid_min = min(v for _, v in grid_values(p, pts, pts))
            assert enc.lo <= grid_min, name
            assert enc.hi >= enc.lo, name
            g1, g2 = gamma_bounds(p)
            assert enc.hi - enc.lo == enclosure_bound(g1, g2, q1, q2), name


class TestMinimumLowerBound:
    def test_valid_bound(self):
        lam, enc = minimum_lower_bound(SPHERE)
        assert 0 < lam <= 1
        assert enc.lo == lam

    def test_refutes_negative_corner(self):
        p = BPoly([[-1, 0], [0, 1]])  # x1 x2 - 1
        with pytest.raises(NotPositiveError) as info:
            minimum_lower_bound(p)
        assert info.value.witness == (0, 0)
        assert info.value.value == -1


class TestCertifyRaise:
    def test_constant_immediate(self):
        one = BPoly([[1]])
        cert = certify_raise(one)
        assert cert.report.doublings == 0
        assert cert.method is Method.RAISE
        for k, row in enumerate(cert.coefficients):
            for l, c in enumerate(row):
                assert c == math.comb(cert.q1, k) * math.comb(cert.q2, l)
        assert verify(one, cert)

    def test_worked_example_needs_doubling(self):
        cert = certify_raise(WORKED)
        assert min_coeff(bern_coeffs(WORKED, 2, 2)) < 0
        assert cert.report.doublings >= 1
        assert cert.q1 == cert.q2 <= 16
        assert verify(WORKED, cert)

    def test_negative_product_refuted(self):
        p = BPoly([[-1, 0], [0, 1]])
        with pytest.raises(NotPositiveError) as info:
            certify_raise(p)
        assert info.value.witness == (0, 0)
        assert p.eval(*info.value.witness) <= 0

    def test_interior_negative_dip_grid_witness(self):
        # (x1 - 1/2)^2 + (x2 - 1/2)^2 - 1/8: corners positive, center negative
        p = BPoly([[Fraction(3, 8), -1, 1], [-1, 0, 0], [1, 0, 0]])
        with pytest.raises(NotPositiveError) as info:
            certify_raise(p)
        assert info.value.value <= 0
        assert p.eval(*info.value.witness) == info.value.value

    def test_touching_zero_is_inconclusive(self):
        # (x1 - 1/3)^2: zero on a line that misses corners and dyadic grids
        p = BPoly([[Fraction(1, 9)], [Fraction(-2, 3)], [1]])
        with pytest.raises(InconclusiveError) as info:
            certify_raise(p, max_doublings=3)
        assert info.value.best is not None
        assert info.value.best.lo <= 0 < info.value.best.hi

    @pytest.mark.parametrize(
        "run",
        [
            lambda: min_enclosure_to_width(SPHERE, 1, 20000),
            lambda: certify_raise(SPHERE, max_doublings=20000),
        ],
        ids=["min_enclosure_to_width", "certify_raise"],
    )
    def test_large_cap_costs_nothing_up_front(self, run):
        # Both answer at (2, 2); a high doubling cap must not build the
        # degrees it never reaches.
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.q1, result.q2) == (2, 2)
        assert peak < 1 << 20

    def test_report_enclosure_consistency(self):
        cert = certify_raise(WORKED)
        g1, g2 = gamma_bounds(WORKED)
        enc = cert.report.enclosure
        assert enc.bound == enclosure_bound(g1, g2, cert.q1, cert.q2)
        assert enc.c_min > 0


class TestVerify:
    def test_valid_certificate(self):
        one = BPoly([[1]])
        cert = certify_raise(one)
        result = verify(one, cert)
        assert result
        assert result.reason is None

    def test_tampered_entry_gives_both_reasons(self):
        one = BPoly([[1]])
        cert = certify_raise(one)
        rows = [list(r) for r in cert.coefficients]
        rows[0][0] = Fraction(0)
        bad = PositivityCertificate(
            cert.q1, cert.q2, tuple(tuple(r) for r in rows), cert.method
        )
        result = verify(one, bad)
        assert not result
        assert "nonpositive entry" in result.reason
        assert "expansion mismatch" in result.reason

    def test_wrong_polynomial_rejected(self):
        one = BPoly([[1]])
        cert = certify_raise(one)
        other = BPoly([[1, 1]])
        result = verify(other, cert)
        assert not result
        assert "expansion mismatch" in result.reason


def _disc(a, b, r2):
    """(x1 - a)^2 + (x2 - b)^2 - r2."""
    return BPoly([[a * a + b * b - r2, -2 * b, 1], [-2 * a, 0, 0], [1, 0, 0]])


def _first_grid_minimum(p, q1, q2):
    """(point, value) of the first row-major minimum of p on (k/q1, l/q2)."""
    points1 = [Fraction(k, q1) for k in range(q1 + 1)]
    points2 = [Fraction(l, q2) for l in range(q2 + 1)]
    best = None
    for point, value in grid_values(p, points1, points2):
        if best is None or value < best[1]:
            best = (point, value)
    return best


def _assert_grid_searches_exact(p, q1, q2):
    """c_min is the minimum of the normalized matrix, and the refutation
    witness and value are the first row-major minimum of p on the grid."""
    enc = min_enclosure(p, q1, q2)
    assert enc.c_min == min_coeff(bern_coeffs(p, q1, q2))
    assert type(enc.c_min) is Fraction
    # _refute reports the grid minimum whatever its sign.
    with pytest.raises(NotPositiveError) as info:
        raising._refute(p, enc)
    assert (info.value.witness, info.value.value) == _first_grid_minimum(p, q1, q2)


class TestMinimumScan:
    """The grid searches agree with the normalized matrix and with p's values."""

    @settings(max_examples=200, deadline=None)
    @given(signed_polys(max_degree=6), st.integers(0, 12), st.integers(0, 12))
    @example(BPoly([[Fraction(1, 8)], [-1], [1]]), 0, 3)  # n2 = 0
    @example(BPoly([[Fraction(-2, 3), 0, 5]]), 1, 0)  # n1 = 0
    @example(BPoly([[0]]), 0, 0)
    @example(BPoly([[Fraction(1, 8)], [-1], [1]]), 0, 12)  # n2 = 0: ties along l
    @example(BPoly([[Fraction(-2, 3), 0, 5]]), 12, 0)  # n1 = 0: ties along k
    @example(BPoly([[3]]), 12, 12)  # every point ties
    @example(BPoly([[0, 1], [1, 0]]), 1, 3)  # degree 1 in both
    @example(BPoly([[1, -1, 1], [-1, 0, 0], [1, 0, 0]]), 2, 2)  # symmetric: ties across rows
    @example(BPoly([[1, -1] * 3 + [1]] * 7), 12, 12)  # degree 6 in both, at floor + 12
    def test_min_enclosure_matches_bern_coeffs(self, p, e1, e2):
        _assert_grid_searches_exact(p, max(p.n1, 2) + e1, max(p.n2, 2) + e2)

    @settings(max_examples=60, deadline=None)
    @given(signed_polys())
    def test_certify_raise_outcome_matches_bern_coeffs(self, p):
        try:
            cert = certify_raise(p, max_doublings=3)
        except NotPositiveError:
            return  # the refutation witness is pinned in TestRefutationWitness
        except InconclusiveError as exc:
            enc = exc.best
        else:
            enc = cert.report.enclosure
            assert enc.c_min > 0
        assert enc.c_min == min_coeff(bern_coeffs(p, enc.q1, enc.q2))


def _scan_grid_min(b, q1, q2):
    """The oracle for ``raising._grid_min``: every grid point, row by row,
    by the same prefix sums, keeping the first row-major minimum."""
    best = None
    for k, coeffs in enumerate(zip(*(_values(col, q1) for col in zip(*b)))):
        row = list(_values(coeffs, q2))
        m = min(row)
        if best is None or m < best[0]:
            best = (m, k, row.index(m))
    return best


def _binomial_basis(f, n1, n2):
    """b with f(k, l) = sum_{i,j} b[i][j] C(k,i) C(l,j), for an integer-valued
    f of degrees at most (n1, n2): its values at k <= n1, l <= n2, differenced
    along both axes."""
    cols = [_differences([f(k, l) for k in range(n1 + 1)]) for l in range(n2 + 1)]
    return [_differences(row) for row in zip(*cols)]


def _roots_poly(roots):
    return lambda x: math.prod(x - r for r in roots)


@st.composite
def index_polys(draw):
    """b of f(k, l) = s1 A(k)**2 + s2 B(l)**2 + t (k - a)(l - c) + e:
    A and B have up to three integer roots, so with t = 0 the minimum is tied
    at every pair of roots on the grid, along a whole row or column when one
    of s1, s2 is 0, and everywhere when both are."""
    grid = st.integers(0, 300)
    roots1 = draw(st.lists(grid, max_size=3))
    roots2 = draw(st.lists(grid, max_size=3))
    s1, s2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    t, a, c = draw(st.sampled_from((0, 0, -1, 1))), draw(grid), draw(grid)
    e = draw(st.integers(-9, 9))
    n1 = max(2 * len(roots1) * (s1 > 0), abs(t))
    n2 = max(2 * len(roots2) * (s2 > 0), abs(t))
    f1, f2 = _roots_poly(roots1), _roots_poly(roots2)
    f = lambda k, l: s1 * f1(k) ** 2 + s2 * f2(l) ** 2 + t * (k - a) * (l - c) + e
    return _binomial_basis(f, n1, n2)


class TestGridMinSearch:
    """The branch and bound of ``_grid_min`` finds the oracle's first
    row-major minimum, value and index, on grids above and below LEAF."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            index_polys(),
            st.lists(  # b drawn directly: degrees 0..6, the minimum mostly at an edge
                st.lists(st.integers(-50, 50), min_size=7, max_size=7), min_size=1, max_size=7
            ).flatmap(lambda b: st.integers(1, 7).map(lambda n2: [r[:n2] for r in b])),
        ),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    @example(_binomial_basis(lambda k, l: 5, 0, 0), 300, 300)  # constant: every point ties
    @example(_binomial_basis(lambda k, l: (l - 150) ** 2 * (l - 40) ** 2, 0, 4), 300, 300)
    @example(_binomial_basis(lambda k, l: (k - 200) ** 2 * (k - 70) ** 2, 4, 0), 300, 300)
    @example(
        _binomial_basis(lambda k, l: ((k - 20) * (k - 250)) ** 2 + ((l - 9) * (l - 280)) ** 2,
                        4, 4),
        290, 290,
    )
    # Tied minima where the search meets a later tie first (the prune's > and
    # its index comparison decide these)
    @example(_binomial_basis(lambda k, l: 1 + ((l - 74) * (l - 79)) ** 2, 0, 4), 200, 149)
    @example(_binomial_basis(lambda k, l: ((k - 32) * (k - 40)) ** 2, 4, 0), 64, 98)
    # Tied minima on rows k = a < c whose row bounds are not in k order: row a
    # is 0 throughout (bound 0), row c is 0 only at one l (bound below 0), so
    # a leaf's sorted rows meet the later tie first and must still scan row a
    @example(_binomial_basis(lambda k, l: ((k - 3) * (k - 40)) ** 2 + (k - 3) ** 2 * (l - 5) ** 2,
                             4, 2), 60, 60)
    @example(
        _binomial_basis(
            lambda k, l: ((k - 2) * (k - 20) * (k - 50)) ** 2 + (k - 2) ** 2 * (l - 31) ** 2, 6, 2
        ),
        64, 64,
    )  # three tied rows, visited 50, 20, 2
    @example(
        _binomial_basis(lambda k, l: ((k - 3) * (k - 150)) ** 2 + (k - 3) ** 2 * (l - 120) ** 2,
                        4, 2),
        200, 200,
    )  # the same above LEAF
    # Rows of degree 2 in l, their closed form tied: g(20) = g(21) on every
    # row, and rows k = 3 and 40 tie, in one leaf and above LEAF
    @example(_binomial_basis(lambda k, l: ((k - 3) * (k - 40)) ** 2 + (l - 20) * (l - 21), 4, 2),
             60, 60)
    @example(_binomial_basis(lambda k, l: ((k - 3) * (k - 40)) ** 2 + (l - 90) * (l - 91), 4, 2),
             200, 200)
    def test_search_matches_scan(self, b, q1, q2):
        assert raising._grid_min(b, q1, q2) == _scan_grid_min(b, q1, q2)

    @pytest.mark.parametrize(
        "search", ["c_min", "refute"], ids=["worked-c_min", "diagonal-refute"]
    )
    def test_at_1025_squared(self, search, monkeypatch):
        # The worked example's c_min grid, and the refutation grid of
        # (x1-x2)**2, which is 0 along the whole diagonal.
        grids, search_min = [], raising._grid_min

        def spy(b, q1, q2):
            grids.append((b, q1, q2))
            return search_min(b, q1, q2)

        monkeypatch.setattr(raising, "_grid_min", spy)
        if search == "c_min":
            raising._c_min(WORKED, 1024, 1024)
        else:
            diagonal = BPoly([[0, 0, 1], [0, -2, 0], [1, 0, 0]])
            with pytest.raises(NotPositiveError):
                raising._refute(diagonal, min_enclosure(diagonal, 1024, 1024))
        b, q1, q2 = grids[-1]
        assert (q1 + 1) * (q2 + 1) > raising.LEAF
        assert search_min(b, q1, q2) == _scan_grid_min(b, q1, q2)

    def test_leaf_scan_prunes_rows(self, monkeypatch):
        # x1^2 - x1 + 1 + x2 has its minimum only at (1/2, 0), and its c_min
        # grid at 64^2 is one leaf.  Its rows taken lowest bound first stop
        # after one of the 65.
        rows, row_min = [], raising._row_min

        def counting(coeffs, span):
            rows.append(coeffs)
            return row_min(coeffs, span)

        monkeypatch.setattr(raising, "_row_min", counting)
        p, q = BPoly([[1, 1], [-1, 0], [1, 0]]), 64
        assert raising._c_min(p, q, q) == min_coeff(bern_coeffs(p, q, q))
        assert len(rows) <= (q + 1) // 4

    def test_isolated_minimum_at_10_15(self):
        # (x1-1/3)^2 + (x2-1/5)^2 + 1/8 at q = 10**15: O(log q) rectangles.
        # c[k][l] = g(k, 1/3) + g(l, 1/5) + 1/8 with g(k, a) = C(k,2)/C(q,2)
        # - 2ak/q + a^2, least at an integer next to k = a(q-1) + 1/2.
        q, a, c = 10**15, Fraction(1, 3), Fraction(1, 5)
        p = BPoly([[a * a + c * c + Fraction(1, 8), -2 * c, 1], [-2 * a, 0, 0], [1, 0, 0]])
        start = time.perf_counter()
        enc = min_enclosure(p, q, q)
        assert time.perf_counter() - start < 5

        def g(s):
            near = math.floor(s * (q - 1))
            return min(
                Fraction(math.comb(k, 2), math.comb(q, 2)) - 2 * s * Fraction(k, q) + s * s
                for k in (near, near + 1)
            )

        assert enc.c_min == g(a) + g(c) + Fraction(1, 8)

    def test_valley_memory_is_the_stack(self):
        # The worked example is least along the whole diagonal, so its search
        # at 16385^2 crosses thousands of rectangles; only the corners of the
        # stack's O(log q) rectangles are alive at once (1.6 MB when every
        # corner made was kept).
        q = 16385
        raising._c_min(WORKED, q, q)  # fills the _bernstein_weights cache
        tracemalloc.start()
        try:
            c_min = raising._c_min(WORKED, q, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c_min == Fraction(268402681, 2147745800)
        assert peak < 1 << 19


class TestRowMin:
    """``_row_min`` is the first minimum of the ``_values`` scan, in closed
    form at degree <= 2."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=5), st.integers(0, 40))
    @example([7], 5)  # degree 0: every point ties
    @example([4, 0], 5)  # c2 = 0, constant: the ends tie
    @example([4, -1], 5)  # c2 = 0, falling: the far end
    @example([0, 5, -2], 6)  # c2 < 0: g(0) = g(6), the ends tie
    @example([0, 3, -1], 6)  # c2 < 0: g(0) < g(6)
    @example([0, -6, 2], 10)  # c2 > 0, -c1/c2 = 3: g(3) = g(4)
    @example([0, -7, 2], 10)  # c2 > 0, -c1/c2 = 7/2: least at 4 only
    @example([0, 5, 1], 10)  # c2 > 0, vertex before the row
    @example([0, -50, 1], 10)  # c2 > 0, vertex past the row
    @example([1, -3, 2], 0)  # one point
    def test_matches_scan(self, coeffs, span):
        row = list(_values(coeffs, span))
        assert raising._row_min(coeffs, span) == (min(row), row.index(min(row)))


def _last_grid(p):
    """The first doubled degrees whose enclosure proves min p <= 0."""
    q1, q2 = max(p.n1, 2), max(p.n2, 2)
    while min_enclosure(p, q1, q2).hi > 0:
        q1, q2 = 2 * q1, 2 * q2
    return q1, q2


REFUTED = {
    # sweep refutations of perfbench/inputs.py, at (256, 256)
    "disc(23/64,41/64)": _disc(Fraction(23, 64), Fraction(41, 64), Fraction(1, 100)),
    "disc(25/64,39/64)": _disc(Fraction(25, 64), Fraction(39, 64), Fraction(1, 100)),
    "disc(39/64,23/64)": _disc(Fraction(39, 64), Fraction(23, 64), Fraction(1, 100)),
    "disc(41/64,25/64)": _disc(Fraction(41, 64), Fraction(25, 64), Fraction(1, 100)),
    # grid minimum tied at (0, 1/2) and (1/2, 1/2): the first in row-major order
    "tie": _disc(Fraction(1, 4), Fraction(1, 2), Fraction(1, 5)),
    "denominators": _disc(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)),
    # n2 = 0: every column of the row x1 = 1/2 ties
    "n2=0": BPoly([[Fraction(1, 8)], [-1], [1]]),
}


class TestNegativeCaps:
    # Every raising walk enters _doubled_degrees, which refuses the cap.
    @pytest.mark.parametrize(
        "run",
        [
            lambda: certify_raise(SPHERE, max_doublings=-1),
            lambda: minimum_lower_bound(SPHERE, -1),
            lambda: min_enclosure_to_width(SPHERE, 1, -1),
        ],
        ids=["certify_raise", "minimum_lower_bound", "min_enclosure_to_width"],
    )
    def test_negative_doubling_cap_rejected(self, run):
        with pytest.raises(ValueError, match="^max_doublings must be nonnegative$"):
            run()


def test_degree_past_digit_limit_is_named_in_full():
    # A doubling walk can reach degrees past the 4300-digit limit for str().
    q1 = 10**5000
    with pytest.raises(DegreeError) as info:
        min_enclosure(WORKED, q1, 2)
    assert str(info.value).startswith(f"degrees (1{'0' * 5000}, 2) are past the largest grid")


class TestRefutationWitness:
    @pytest.mark.parametrize("name", list(REFUTED))
    def test_witness_is_first_grid_minimum(self, name):
        p = REFUTED[name]
        with pytest.raises(NotPositiveError) as info:
            certify_raise(p)
        q1, q2 = _last_grid(p)
        witness, value = _first_grid_minimum(p, q1, q2)
        assert info.value.witness == witness
        assert info.value.value == value
        hi = min_enclosure(p, q1, q2).hi
        assert str(info.value) == (
            f"minimum over the box is at most {hi}; p({witness[0]}, {witness[1]}) = {value}"
        )

    def test_tie_and_degree_zero_witnesses(self):
        with pytest.raises(NotPositiveError) as info:
            certify_raise(REFUTED["tie"])
        assert info.value.witness == (0, Fraction(1, 2))
        assert str(info.value) == (
            "minimum over the box is at most -11/80; "
            "p(0, 1/2) = -11/80"
        )
        with pytest.raises(NotPositiveError) as info:
            minimum_lower_bound(REFUTED["n2=0"])
        assert info.value.witness == (Fraction(1, 2), 0)
        assert info.value.value == Fraction(-1, 8)

    def test_refutation_without_a_bound_names_its_point(self):
        refuted = NotPositiveError((Fraction(1, 2), 0), Fraction(-1, 8))
        assert str(refuted) == "p(1/2, 0) = -1/8 is not strictly positive"
        assert str(NotPositiveError(Fraction(1, 3), 0)) == "p(1/3) = 0 is not strictly positive"

    def test_refutation_holds_only_its_data(self):
        with pytest.raises(NotPositiveError) as info:
            certify_raise(REFUTED["tie"])
        copy = pickle.loads(pickle.dumps(info.value))
        assert (copy.witness, copy.value, str(copy)) == (
            info.value.witness, info.value.value, str(info.value)
        )

    @pytest.mark.parametrize(
        "p, q",
        [(REFUTED[name], 256) for name in list(REFUTED)[:4]] + [(WORKED, 512)],
        ids=list(REFUTED)[:4] + ["worked"],
    )
    def test_grid_searches_at_fixed_degrees(self, p, q):
        _assert_grid_searches_exact(p, q, q)


def _bernstein_weights_by_raising(d, n):
    """``raising._bernstein_weights`` made in the plain basis s**k (1-s)**(i-k)
    one linear factor at a time, each row raised to degree n by n - i
    multiplications by (1-s) + s."""
    fact = math.factorial
    rows, plain = [], [1]
    for i in range(n + 1):
        raised = plain
        for _ in range(n - i):
            raised = [a + c for a, c in zip(raised + [0], [0] + raised)]
        scale = fact(n) // fact(i)
        rows.append([v * scale * fact(k) * fact(n - k) for k, v in enumerate(raised)])
        plain = [(d - i) * c - i * a for a, c in zip(plain + [0], [0] + plain)]
    return tuple(zip(*rows))


def test_bernstein_weights_match_the_raising_loop():
    for n in range(11):
        for d in [*range(200), 4224, 65536, 10**15]:
            made = raising._bernstein_weights.__wrapped__(d, n)  # not through the cache
            assert made == _bernstein_weights_by_raising(d, n), (d, n)


class TestKernelCalls:
    """The plain kernel runs only to build a certificate."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []

        def counting(kernel):
            def count(p, q1, q2):
                calls.append((q1, q2))
                return kernel(p, q1, q2)

            return count

        # certify_raise makes its rows by plain_rows; bern_coeffs calls plain_coeffs.
        for name in ("plain_coeffs", "plain_rows"):
            monkeypatch.setattr(raising, name, counting(getattr(raising, name)))
        return calls

    def test_once_on_success(self, kernel_calls):
        cert = certify_raise(WORKED)
        assert cert.report.doublings >= 1
        assert kernel_calls == [(cert.q1, cert.q2)]
        assert verify(WORKED, cert)

    def test_never_on_refutation(self, kernel_calls):
        with pytest.raises(NotPositiveError):
            certify_raise(REFUTED["disc(23/64,41/64)"])
        assert kernel_calls == []

    def test_never_when_inconclusive(self, kernel_calls):
        with pytest.raises(InconclusiveError):
            certify_raise(BPoly([[Fraction(1, 9)], [Fraction(-2, 3)], [1]]), max_doublings=3)
        assert kernel_calls == []

    def test_never_in_min_enclosure(self, kernel_calls):
        min_enclosure(WORKED, 64, 32)
        min_enclosure_to_width(WORKED, Fraction(1, 100))
        assert kernel_calls == []

    def test_min_enclosure_allocates_no_matrix(self):
        # The plain matrix at (512, 512) held about 35 MB of integers.
        tracemalloc.start()
        try:
            min_enclosure(WORKED, 512, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _swapped(p: BPoly) -> BPoly:
    """p(x2, x1)."""
    return BPoly(zip(*p.coeffs))


def _reflected(p: BPoly) -> BPoly:
    """p(1 - x1, x2), expanded exactly: (1 - x1)**i = sum_k C(i,k) (-x1)**k."""
    return BPoly(
        [(-1) ** k * sum(math.comb(i, k) * p.coeffs[i][j] for i in range(k, p.n1 + 1))
         for j in range(p.n2 + 1)]
        for k in range(p.n1 + 1)
    )


CORPUS_IDS = [name for name, _ in BIVARIATE_CORPUS]


class TestBoxSymmetries:
    """The raise certificate commutes with the symmetries of the box: its
    walk starts at the floors, so it depends on p alone.  The bound does not,
    since gamma reads monomial coefficients."""

    @pytest.mark.parametrize("p", [p for _, p in BIVARIATE_CORPUS], ids=CORPUS_IDS)
    def test_reflection_reverses_rows(self, p):
        x2 = Fraction(2, 7)
        assert _reflected(p).eval(Fraction(1, 3), x2) == p.eval(Fraction(2, 3), x2)
        cert, flipped = certify_raise(p), certify_raise(_reflected(p))
        assert (flipped.q1, flipped.q2) == (cert.q1, cert.q2)
        assert flipped.coefficients == cert.coefficients[::-1]

    @pytest.mark.parametrize("p", [p for _, p in BIVARIATE_CORPUS], ids=CORPUS_IDS)
    def test_swap_transposes(self, p):
        cert, swapped = certify_raise(p), certify_raise(_swapped(p))
        assert (swapped.q1, swapped.q2) == (cert.q2, cert.q1)
        assert swapped.coefficients == tuple(zip(*cert.coefficients))

    @pytest.mark.parametrize("p", [p for _, p in BIVARIATE_CORPUS], ids=CORPUS_IDS)
    def test_c_min_is_reflection_invariant(self, p):
        # A 129 x 129 grid is above LEAF: its search halves and prunes.
        for q1, q2 in ((max(p.n1, 4), max(p.n2, 4)), (128, 128)):
            c_min = min_enclosure(p, q1, q2).c_min
            assert min_enclosure(_reflected(p), q1, q2).c_min == c_min
            assert min_enclosure(_swapped(_reflected(_swapped(p))), q1, q2).c_min == c_min
