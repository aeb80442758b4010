"""Certificate verification: pinned reject diagnostics and a differential
check against the symbolic expansion.

The reason strings below were recorded from the verifier that re-expanded
every certificate into monomials; the verifier must keep producing them byte
for byte, in the library result and on the CLI's ``status=invalid`` line.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from berncert import (
    BPoly,
    Method,
    PositivityCertificate,
    certify_nested,
    certify_raise,
    expand_plain_2d,
    verify,
)
from berncert.cli import main
from berncert.documents import (
    CertificateDocument,
    PolynomialDocument,
    serialize_certificate_document,
    serialize_polynomial_document,
)
from berncert.raising import plain_coeffs

SPHERE = BPoly([[1, 0, 1], [0, 0, 0], [1, 0, 0]])  # x1^2 + x2^2 + 1
WORKED = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])  # (x1-x2)^2 + 1/8
PLANE = BPoly([[1, 1], [1, 0]])  # 1 + x1 + x2
SQUARE_X1 = BPoly([[1, 1], [0, 0], [1, 0]])  # 1 + x1^2 + x2
SQUARE_X2 = BPoly([[2, 0, -1]])  # 2 - x2^2


def _with_entry(cert, i, j, value):
    rows = [list(r) for r in cert.coefficients]
    rows[i][j] = value
    return PositivityCertificate(cert.q1, cert.q2, tuple(map(tuple, rows)), cert.method)


def _bumped(cert, i, j):
    return _with_entry(cert, i, j, cert.coefficients[i][j] + Fraction(1, 10**9))


def _matrix(q1, q2, rows):
    return PositivityCertificate(q1, q2, rows, Method.RAISE)


CASES = {
    "zero-entry": (
        SPHERE,
        lambda: _with_entry(certify_raise(SPHERE), 0, 0, Fraction(0)),
        "nonpositive entry C[0][0] = 0; expansion mismatch at monomial "
        "x1^0 x2^0: expansion gives 0, polynomial has 1",
    ),
    "perturbed": (
        SPHERE,
        lambda: _bumped(certify_raise(SPHERE), 1, 1),
        "expansion mismatch at monomial x1^1 x2^1: "
        "expansion gives 1/1000000000, polynomial has 0",
    ),
    "perturbed-nested": (
        PLANE,
        lambda: _bumped(certify_nested(PLANE), 7, 9),
        "expansion mismatch at monomial x1^7 x2^9: "
        "expansion gives 1/1000000000, polynomial has 0",
    ),
    "wrong-polynomial": (
        WORKED,
        lambda: certify_raise(SPHERE),
        "expansion mismatch at monomial x1^0 x2^0: "
        "expansion gives 1, polynomial has 1/8",
    ),
    "below-degree-x1": (
        SQUARE_X1,
        lambda: _matrix(1, 1, ((1, 2), (1, 2))),
        "expansion mismatch at monomial x1^2 x2^0: "
        "expansion gives 0, polynomial has 1",
    ),
    "below-degree-x2": (
        SQUARE_X2,
        lambda: _matrix(2, 1, ((2, 2), (4, 4), (2, 2))),
        "expansion mismatch at monomial x1^0 x2^2: "
        "expansion gives 0, polynomial has -1",
    ),
    "below-degree-nonpositive": (
        SQUARE_X1,
        lambda: _matrix(1, 1, ((1, 2), (-1, 2))),
        "nonpositive entry C[1][0] = -1; expansion mismatch at monomial "
        "x1^1 x2^0: expansion gives -2, polynomial has 0",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reject_reason_pinned(name):
    p, build, reason = CASES[name]
    result = verify(p, build())
    assert not result
    assert result.reason == reason


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reject_line_pinned(name, tmp_path, capsys):
    p, build, reason = CASES[name]
    poly = tmp_path / "poly.txt"
    poly.write_text(serialize_polynomial_document(PolynomialDocument.from_bpoly(p)))
    cert = tmp_path / "cert.txt"
    cert.write_text(
        serialize_certificate_document(CertificateDocument.from_certificate(build()))
    )
    assert main(["verify", str(poly), str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"status=invalid reason={reason.replace(' ', '_')}\n"


entries = st.fractions(min_value=-3, max_value=5, max_denominator=6)


@st.composite
def verify_inputs(draw):
    """A polynomial and a certificate at degrees (q1, q2) in 0..4.

    The polynomial is the expansion of the certificate, the polynomial whose
    kernel matrix the certificate is, or unrelated to it (often of higher
    degree than the certificate); one entry may then be perturbed.
    """
    q1, q2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    random_p = BPoly(
        [[draw(entries) for _ in range(n2 + 1)] for _ in range(n1 + 1)]
    )
    kind = draw(st.sampled_from(["expansion", "kernel", "unrelated"]))
    if kind == "kernel" and random_p.n1 <= q1 and random_p.n2 <= q2:
        nums, den = plain_coeffs(random_p, q1, q2)
        rows = [[Fraction(v, den) for v in row] for row in nums]
        p = random_p
    else:
        rows = [[draw(entries) for _ in range(q2 + 1)] for _ in range(q1 + 1)]
        p = expand_plain_2d(rows, q1, q2) if kind == "expansion" else random_p
    if draw(st.booleans()):
        i, j = draw(st.integers(0, q1)), draw(st.integers(0, q2))
        rows[i][j] += draw(st.sampled_from([Fraction(1, 10**9), Fraction(-1), 1]))
    return p, PositivityCertificate(q1, q2, tuple(map(tuple, rows)), Method.RAISE)


@settings(max_examples=300, deadline=None)
@given(verify_inputs())
def test_verify_agrees_with_expansion_oracle(case):
    p, cert = case
    expected = all(c > 0 for row in cert.coefficients for c in row) and (
        expand_plain_2d(cert.coefficients, cert.q1, cert.q2) == p
    )
    assert bool(verify(p, cert)) == expected


def _sympy_expand_plain_2d(rows, q1, q2):
    """Independent monomial form of a plain Bernstein matrix via sympy."""
    x1, x2 = sympy.symbols("x1 x2")
    expr = sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * x1**i * (1 - x1) ** (q1 - i) * x2**j * (1 - x2) ** (q2 - j)
            for i, row in enumerate(rows)
            for j, c in enumerate(row)
        ),
        sympy.Integer(0),
    )
    out = [[Fraction(0)] * (q2 + 1) for _ in range(q1 + 1)]
    for (r, c), coeff in sympy.Poly(sympy.expand(expr), x1, x2).terms():
        out[r][c] = Fraction(int(coeff.p), int(coeff.q))
    return BPoly(out)


@st.composite
def plain_matrices(draw):
    q1, q2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [[draw(entries) for _ in range(q2 + 1)] for _ in range(q1 + 1)]
    return rows, q1, q2


@settings(max_examples=60, deadline=None)
@given(plain_matrices())
def test_expand_plain_2d_matches_sympy(case):
    rows, q1, q2 = case
    assert expand_plain_2d(rows, q1, q2) == _sympy_expand_plain_2d(rows, q1, q2)
