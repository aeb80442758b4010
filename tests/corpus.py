"""Shared test corpora: strictly positive polynomials with rational coefficients.

The bivariate corpus keeps degrees at most 4 per variable and coefficients in
[-5, 5].  Members are chosen so both certification pipelines finish at desk
scale; high-degree members use coefficient profiles whose Goursat transforms
stay small relative to the minimum (flat profiles built from sums of powers of
(1 + x)), since those drive the certified degrees.
"""

from __future__ import annotations

import random
from fractions import Fraction

from berncert import BPoly, UPoly


def _u(*coeffs) -> UPoly:
    return UPoly([Fraction(c) for c in coeffs])


def _b(rows) -> BPoly:
    return BPoly([[Fraction(c) for c in row] for row in rows])


F = Fraction

# Flat-transform profiles: sums of (1 + x)**m for m = 0..n have Goursat
# coefficients all equal to 2**n * (n + 1) / (n + 1), the smallest possible
# relative to the value at 0, which keeps certified degrees low at high n.
_HOCKEY3 = _u(4, 6, 4, 1)
_HOCKEY4 = _u(5, 10, 10, 5, 1)
_HOCKEY5 = _u(6, 15, 20, 15, 6, 1)
_HOCKEY6 = _u(7, 21, 35, 35, 21, 7, 1)

UNIVARIATE_CORPUS: list[tuple[str, UPoly]] = [
    ("1", _u(1)),
    ("7/3", _u(F(7, 3))),
    ("5", _u(5)),
    ("1+x", _u(1, 1)),
    ("2-x", _u(2, -1)),
    ("1+2x", _u(1, 2)),
    ("3+x/2", _u(3, F(1, 2))),
    ("1+x^2", _u(1, 0, 1)),
    ("2-x^2", _u(2, 0, -1)),
    ("x^2-x+1", _u(1, -1, 1)),
    ("1/2+x-x^2", _u(F(1, 2), 1, -1)),
    ("1+x+x^2", _u(1, 1, 1)),
    ("3-2x+x^2", _u(3, -2, 1)),
    ("1+x^3", _u(1, 0, 0, 1)),
    ("2-x^3", _u(2, 0, 0, -1)),
    ("1+x^2+x^3", _u(1, 0, 1, 1)),
    ("4+6x+4x^2+x^3", _HOCKEY3),
    ("2+3x+2x^2+x^3/2", _u(2, 3, 2, F(1, 2))),
    ("5+10x+10x^2+5x^3+x^4", _HOCKEY4),
    ("5+11x+10x^2+5x^3+x^4", _u(5, 11, 10, 5, 1)),
    ("4+x^4/4", _u(4, 0, 0, 0, F(1, 4))),
    ("6+15x+20x^2+15x^3+6x^4+x^5", _HOCKEY5),
    ("7+21x+35x^2+35x^3+21x^4+7x^5+x^6", _HOCKEY6),
]

BIVARIATE_CORPUS: list[tuple[str, BPoly]] = [
    ("1", _b([[1]])),
    ("3/7", _b([[F(3, 7)]])),
    ("5", _b([[5]])),
    ("1+x1", _b([[1], [1]])),
    ("2-x2", _b([[2, -1]])),
    ("1+x1+x2", _b([[1, 1], [1, 0]])),
    ("(1+x1)(1+x2)", _b([[1, 1], [1, 1]])),
    ("2-x1x2", _b([[2, 0], [0, -1]])),
    ("1/2+x1x2", _b([[F(1, 2), 0], [0, 1]])),
    ("3+x1-x2", _b([[3, -1], [1, 0]])),
    ("1+x1/2-x2/3", _b([[1, F(-1, 3)], [F(1, 2), 0]])),
    ("2+x1-3x2/2+x1x2", _b([[2, F(-3, 2)], [1, 1]])),
    ("1+x1^2+x2", _b([[1, 1], [0, 0], [1, 0]])),
    ("2-x2^2", _b([[2, 0, -1]])),
    ("1+x1^2x2", _b([[1, 0], [0, 0], [0, 1]])),
    ("3-x1x2^2", _b([[3, 0, 0], [0, 0, -1]])),
    ("x1^2-x1+1+x2", _b([[1, 1], [-1, 0], [1, 0]])),
    ("1+x2^2-x2+x1/2", _b([[1, -1, 1], [F(1, 2), 0, 0]])),
    ("2+x1-x2+x2^2/2", _b([[2, -1, F(1, 2)], [1, 0, 0]])),
    ("2+x1^2x2^2/8", _b([[2, 0, 0], [0, 0, 0], [0, 0, F(1, 8)]])),
    ("1+(x1-x2)^2/8", _b([[1, 0, F(1, 8)], [0, F(-1, 4), 0], [F(1, 8), 0, 0]])),
    ("4+x1^2+x2^2-x1-x2", _b([[4, -1, 1], [-1, 0, 0], [1, 0, 0]])),
    ("3+x1x2+x1^2x2^2/4", _b([[3, 0, 0], [0, 1, 0], [0, 0, F(1, 4)]])),
    ("2+x1x2-x1^2x2^2/2", _b([[2, 0, 0], [0, 1, 0], [0, 0, F(-1, 2)]])),
    ("1+x1x2/2+x1^2x2^2/10", _b([[1, 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 10)]])),
    ("2+(x1-x2)^2/4", _b([[2, 0, F(1, 4)], [0, F(-1, 2), 0], [F(1, 4), 0, 0]])),
    ("2+(x1-x2/2)^2/4", _b([[2, 0, F(1, 16)], [0, F(-1, 4), 0], [F(1, 4), 0, 0]])),
    ("3+(x1/2-x2)^2/8", _b([[3, 0, F(1, 8)], [0, F(-1, 8), 0], [F(1, 32), 0, 0]])),
    ("2-x1x2+x2^2", _b([[2, 0, 1], [0, -1, 0]])),
    ("h3(x1)/2+x2/8", _b([[2, F(1, 8)], [3, 0], [2, 0], [F(1, 2), 0]])),
    ("h3(x2)/2+x1/8", _b([[2, 3, 2, F(1, 2)], [F(1, 8), 0, 0, 0]])),
    ("1+x1^3x2/8", _b([[1, 0], [0, 0], [0, 0], [0, F(1, 8)]])),
    ("h4(x1)/2", _b([[F(5, 2)], [5], [5], [F(5, 2)], [F(1, 2)]])),
    ("h4(x2)/2", _b([[F(5, 2), 5, 5, F(5, 2), F(1, 2)]])),
    ("h4(x1)/2+x2/5", _b([[F(5, 2), F(1, 5)], [5, 0], [5, 0], [F(5, 2), 0], [F(1, 2), 0]])),
]


def random_fraction(rng: random.Random, lo: int = -5, hi: int = 5,
                    max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_unit_fraction(rng: random.Random, max_den: int = 97,
                         open_left: bool = False) -> Fraction:
    """Random rational in [0, 1], or (0, 1] when open_left is set."""
    den = rng.randint(1, max_den)
    num = rng.randint(1 if open_left else 0, den)
    return Fraction(num, den)


def random_upoly(rng: random.Random, max_degree: int = 8) -> UPoly:
    size = rng.randint(1, max_degree + 1)
    return UPoly([random_fraction(rng) for _ in range(size)])
