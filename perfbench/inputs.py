"""Seeded inputs for the three benchmark workloads, and the benchmark's own
exact evaluation used to check the program's outputs.

An input is one polynomial plus the operations the user path runs on it.
Every polynomial is held as a coefficient matrix of Fractions (row i holds the
coefficients of x1**i by increasing power of x2), and reaches the program only
as a polynomial document written to a file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Operation kinds; each maps to one user path through the CLI.
CORPUS = "corpus"        # certify --method nested, verify; certify --method raise, verify
NEAR_ZERO = "near-zero"  # certify --method raise, verify; enclose-min --target-width
ENCLOSE = "enclose"      # enclose-min --q1 Q --q2 Q
REFUTE = "refute"        # certify --method raise, expected to end in exit 2

WORKLOADS = ("corpus", "near-zero", "sweep")

# The 35 polynomials of the repository's bivariate test corpus, frozen here so
# that editing the tests never moves the benchmark.  Rows are separated by
# ";", entries by spaces.
BIVARIATE_CORPUS = (
    ("1", "1"),
    ("3/7", "3/7"),
    ("5", "5"),
    ("1+x1", "1; 1"),
    ("2-x2", "2 -1"),
    ("1+x1+x2", "1 1; 1 0"),
    ("(1+x1)(1+x2)", "1 1; 1 1"),
    ("2-x1x2", "2 0; 0 -1"),
    ("1/2+x1x2", "1/2 0; 0 1"),
    ("3+x1-x2", "3 -1; 1 0"),
    ("1+x1/2-x2/3", "1 -1/3; 1/2 0"),
    ("2+x1-3x2/2+x1x2", "2 -3/2; 1 1"),
    ("1+x1^2+x2", "1 1; 0 0; 1 0"),
    ("2-x2^2", "2 0 -1"),
    ("1+x1^2x2", "1 0; 0 0; 0 1"),
    ("3-x1x2^2", "3 0 0; 0 0 -1"),
    ("x1^2-x1+1+x2", "1 1; -1 0; 1 0"),
    ("1+x2^2-x2+x1/2", "1 -1 1; 1/2 0 0"),
    ("2+x1-x2+x2^2/2", "2 -1 1/2; 1 0 0"),
    ("2+x1^2x2^2/8", "2 0 0; 0 0 0; 0 0 1/8"),
    ("1+(x1-x2)^2/8", "1 0 1/8; 0 -1/4 0; 1/8 0 0"),
    ("4+x1^2+x2^2-x1-x2", "4 -1 1; -1 0 0; 1 0 0"),
    ("3+x1x2+x1^2x2^2/4", "3 0 0; 0 1 0; 0 0 1/4"),
    ("2+x1x2-x1^2x2^2/2", "2 0 0; 0 1 0; 0 0 -1/2"),
    ("1+x1x2/2+x1^2x2^2/10", "1 0 0; 0 1/2 0; 0 0 1/10"),
    ("2+(x1-x2)^2/4", "2 0 1/4; 0 -1/2 0; 1/4 0 0"),
    ("2+(x1-x2/2)^2/4", "2 0 1/16; 0 -1/4 0; 1/4 0 0"),
    ("3+(x1/2-x2)^2/8", "3 0 1/8; 0 -1/8 0; 1/32 0 0"),
    ("2-x1x2+x2^2", "2 0 1; 0 -1 0"),
    ("h3(x1)/2+x2/8", "2 1/8; 3 0; 2 0; 1/2 0"),
    ("h3(x2)/2+x1/8", "2 3 2 1/2; 1/8 0 0 0"),
    ("1+x1^3x2/8", "1 0; 0 0; 0 0; 0 1/8"),
    ("h4(x1)/2", "5/2; 5; 5; 5/2; 1/2"),
    ("h4(x2)/2", "5/2 5 5 5/2 1/2"),
    ("h4(x1)/2+x2/5", "5/2 1/5; 5 0; 5 0; 5/2 0; 1/2 0"),
)

# near-zero: (x1-a)^2 + 10^-k certifies at q = (256, 256) for k = 3 and at
# (32, 32) for k = 2 whenever a = m/64 with m odd in [23, 41]; the centres are
# drawn from that band so every seed costs the same kernel work.
NEAR_ZERO_CENTRES = tuple(range(23, 42, 2))
NEAR_ZERO_WIDTH = Fraction(1, 100)

# sweep: random degree x bit-size polynomials enclosed at one fixed degree,
# plus one refutation of (x1-a)^2 + (x2-b)^2 - 1/100 with a, b at least 7/64
# away from 1/2, which refutes at q = (256, 256) for every such centre.
SWEEP_DEGREES = (2, 4, 6, 8)
SWEEP_BITS = (8, 64, 256)
SWEEP_Q = 64
REFUTE_CENTRES = (23, 25, 39, 41)


@dataclass(frozen=True)
class Input:
    name: str
    kind: str
    rows: tuple[tuple[Fraction, ...], ...]
    q: int = 0  # enclosure degree for ENCLOSE; unused otherwise


def parse_rows(text: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(tok) for tok in row.split()) for row in text.split(";")
    )


def poly_document(rows) -> str:
    """The polynomial document format read by ``berncert``."""
    lines = ["variables: 2", "coeffs:"]
    lines += [" ".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def horner(rows, x1: Fraction, x2: Fraction) -> Fraction:
    """Exact value of the polynomial at (x1, x2), by nested Horner."""
    total = Fraction(0)
    for row in reversed(rows):
        inner = Fraction(0)
        for c in reversed(row):
            inner = inner * x2 + c
        total = total * x1 + inner
    return total


def _shift_square(a: Fraction, k: int):
    """(x1 - a)^2 + 10^-k."""
    return ((a * a + Fraction(1, 10**k),), (-2 * a,), (Fraction(1),))


def _diagonal_square(k: int):
    """(x1 - x2)^2 + 10^-k."""
    eps = Fraction(1, 10**k)
    return ((eps, Fraction(0), Fraction(1)), (Fraction(0), Fraction(-2), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)))


def _disc(a: Fraction, b: Fraction):
    """(x1 - a)^2 + (x2 - b)^2 - 1/100, negative near (a, b), positive at the corners."""
    return (
        (a * a + b * b - Fraction(1, 100), -2 * b, Fraction(1)),
        (-2 * a, Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    )


def _random_poly(rng: random.Random, n: int, bits: int):
    """Degree (n, n), coefficients with bits-bit numerators over 2**bits."""
    den = 2**bits
    return tuple(
        tuple(Fraction(rng.randrange(-den, den), den) for _ in range(n + 1))
        for _ in range(n + 1)
    )


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The inputs of one pass, in the seeded order they are run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        inputs = [Input(name, CORPUS, parse_rows(rows)) for name, rows in BIVARIATE_CORPUS]
    elif workload == "near-zero":
        a3, a2 = (Fraction(m, 64) for m in rng.sample(NEAR_ZERO_CENTRES, 2))
        inputs = [
            Input(f"(x1-{a3})^2+1e-3", NEAR_ZERO, _shift_square(a3, 3)),
            Input(f"(x1-{a2})^2+1e-2", NEAR_ZERO, _shift_square(a2, 2)),
            Input("(x1-x2)^2+1e-2", NEAR_ZERO, _diagonal_square(2)),
            Input("(x1-x2)^2+1e-1", NEAR_ZERO, _diagonal_square(1)),
        ]
    elif workload == "sweep":
        inputs = [
            Input(f"random(n={n},bits={bits})", ENCLOSE, _random_poly(rng, n, bits), SWEEP_Q)
            for n in SWEEP_DEGREES
            for bits in SWEEP_BITS
        ]
        a, b = (Fraction(rng.choice(REFUTE_CENTRES), 64) for _ in range(2))
        inputs.append(Input(f"disc({a},{b})", REFUTE, _disc(a, b)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(inputs)
    return inputs


def sample_points(rng: random.Random, count: int = 8):
    """Seeded points of the unit box at which enclosure lower bounds are checked."""
    def coord():
        den = rng.randint(1, 97)
        return Fraction(rng.randint(0, den), den)
    corners = [(Fraction(x), Fraction(y)) for x in (0, 1) for y in (0, 1)]
    return corners + [(coord(), coord()) for _ in range(count)]
