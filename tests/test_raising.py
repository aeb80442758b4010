"""Degree-raising machinery: coefficients, enclosures, delta, certification."""

import random
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
    binom,
    certify_raise,
    delta,
    enclosure_bound,
    gamma_bounds,
    min_coeff,
    min_enclosure,
    minimum_lower_bound,
    verify,
)

from berncert.polys import grid_values
from berncert.raising import plain_coeffs

from corpus import random_fraction, random_unit_fraction

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
                assert b.coeffs[k][l] == binom(k, 2) + binom(l, 2) + 1
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
                plain = b.coeffs[k][l] * (binom(3, k) * binom(4, l))
                assert plain == Fraction(nums[k][l], den)


class TestMinCoeff:
    def test_all_ones(self):
        assert min_coeff(bern_coeffs(BPoly([[1]]), 3, 3)) == 1

    def test_worked_example(self):
        assert min_coeff(bern_coeffs(WORKED, 2, 2)) == Fraction(-3, 8)

    def test_sphere(self):
        assert min_coeff(bern_coeffs(SPHERE, 2, 2)) == 1


class TestGamma:
    def test_constant(self):
        assert gamma_bounds(BPoly([[1]])) == (0, 0)

    def test_worked_example(self):
        assert gamma_bounds(WORKED) == (1, 1)

    def test_sphere(self):
        assert gamma_bounds(SPHERE) == (1, 1)


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
        diff = bernstein_approximation(mono, q1, q2) - mono
        d = bern_coeffs(diff, q1, q2)
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
                assert c == binom(cert.q1, k) * binom(cert.q2, l)
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

    def test_q_start_respected(self):
        cert = certify_raise(WORKED, q_start=(16, 16))
        assert cert.q1 == cert.q2 == 16
        assert cert.report.doublings == 0

    def test_q_start_below_floor_rejected(self):
        with pytest.raises(DegreeError):
            certify_raise(WORKED, q_start=(1, 1))

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


entries = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def signed_polys(draw):
    """p with signed rational entries, zeros included, degrees 0..3 each."""
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return BPoly([[draw(entries) for _ in range(n2 + 1)] for _ in range(n1 + 1)])


class TestMinimumScan:
    """The enclosure minimum equals the minimum of the normalized matrix."""

    @settings(max_examples=200, deadline=None)
    @given(signed_polys(), st.integers(0, 5), st.integers(0, 5))
    @example(BPoly([[Fraction(1, 8)], [-1], [1]]), 0, 3)  # n2 = 0
    @example(BPoly([[Fraction(-2, 3), 0, 5]]), 1, 0)  # n1 = 0
    @example(BPoly([[0]]), 0, 0)
    def test_min_enclosure_matches_bern_coeffs(self, p, e1, e2):
        q1, q2 = max(p.n1, 2) + e1, max(p.n2, 2) + e2
        enc = min_enclosure(p, q1, q2)
        assert enc.c_min == min_coeff(bern_coeffs(p, q1, q2))
        assert type(enc.c_min) is Fraction

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


class TestRefutationWitness:
    @pytest.mark.parametrize("name", list(REFUTED))
    def test_witness_is_first_grid_minimum(self, name):
        p = REFUTED[name]
        with pytest.raises(NotPositiveError) as info:
            certify_raise(p)
        q1, q2 = _last_grid(p)
        points1 = [Fraction(k, q1) for k in range(q1 + 1)]
        points2 = [Fraction(l, q2) for l in range(q2 + 1)]
        best = None
        for point, value in grid_values(p, points1, points2):
            if best is None or value < best[1]:
                best = (point, value)
        witness, value = best
        assert info.value.witness == witness
        assert info.value.value == value
        hi = min_enclosure(p, q1, q2).hi
        assert str(info.value) == (
            f"minimum over the box is at most {hi}; p{witness} = {value}"
        )

    def test_tie_and_degree_zero_witnesses(self):
        with pytest.raises(NotPositiveError) as info:
            certify_raise(REFUTED["tie"])
        assert info.value.witness == (0, Fraction(1, 2))
        assert str(info.value) == (
            "minimum over the box is at most -11/80; "
            "p(Fraction(0, 1), Fraction(1, 2)) = -11/80"
        )
        with pytest.raises(NotPositiveError) as info:
            minimum_lower_bound(REFUTED["n2=0"])
        assert info.value.witness == (Fraction(1, 2), 0)
        assert info.value.value == Fraction(-1, 8)
