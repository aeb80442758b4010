"""Certificate verification: pinned reject diagnostics and a differential
check against the symbolic expansion.

The reason strings below were recorded from the verifier that re-expanded
every certificate into monomials; the verifier must keep producing them byte
for byte, in the library result and on the CLI's ``status=invalid`` line.
"""

import tracemalloc
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
    documents,
    expand_plain_2d,
    verify,
)
from berncert.certificates import verify_rows
from berncert.cli import main
from berncert.documents import (
    CertificateDocument,
    CertificateReader,
    PolynomialDocument,
    parse_certificate_document,
    serialize_certificate_document,
    serialize_polynomial_document,
)
from berncert.raising import plain_coeffs
from corpus import BIVARIATE_CORPUS

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
    poly.write_text(serialize_polynomial_document(PolynomialDocument(2, p.coeffs)))
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


def _expansion_reason(p, cert):
    """The reject reason as the verifier built it when it expanded C into
    monomials: the oracle for the reason verify reads off the kernel
    comparison."""
    reasons = [
        f"nonpositive entry C[{i}][{j}] = {c}"
        for i, row in enumerate(cert.coefficients)
        for j, c in enumerate(row)
        if c <= 0
    ][:1]
    expansion = expand_plain_2d(cert.coefficients, cert.q1, cert.q2)

    def coeff(poly, r, c):
        return poly.coeffs[r][c] if r <= poly.n1 and c <= poly.n2 else Fraction(0)

    first = next(
        (
            (r, c)
            for r in range(max(expansion.n1, p.n1) + 1)
            for c in range(max(expansion.n2, p.n2) + 1)
            if coeff(expansion, r, c) != coeff(p, r, c)
        ),
        None,
    )
    if first is not None:
        r, c = first
        reasons.append(
            f"expansion mismatch at monomial x1^{r} x2^{c}: "
            f"expansion gives {coeff(expansion, r, c)}, polynomial has {coeff(p, r, c)}"
        )
    return "; ".join(reasons) if reasons else None


@st.composite
def reason_inputs(draw):
    """A small random p and a certificate at degrees (q1, q2) in 0..4, often
    below p's: the kernel matrix of p cut to (q1, q2), which expands to p
    only at or above p's degrees, with one entry perhaps perturbed; a random
    positive matrix; or a random matrix of either sign."""
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    p = BPoly([[draw(entries) for _ in range(n2 + 1)] for _ in range(n1 + 1)])
    q1, q2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["kernel", "positive", "random"]))
    if kind == "kernel":
        cut = BPoly([row[: q2 + 1] for row in p.coeffs[: q1 + 1]])
        nums, den = plain_coeffs(cut, q1, q2)
        rows = [[Fraction(v, den) for v in row] for row in nums]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, q1)), draw(st.integers(0, q2))
            rows[i][j] += draw(st.sampled_from([Fraction(1, 10**9), Fraction(-1), Fraction(7, 3)]))
    else:
        low = Fraction(1, 6) if kind == "positive" else -3
        values = st.fractions(min_value=low, max_value=5, max_denominator=6)
        rows = [[draw(values) for _ in range(q2 + 1)] for _ in range(q1 + 1)]
    return p, PositivityCertificate(q1, q2, tuple(map(tuple, rows)), Method.RAISE)


@settings(max_examples=400, deadline=None)
@given(reason_inputs())
def test_reason_matches_expansion_oracle(case):
    p, cert = case
    assert verify(p, cert).reason == _expansion_reason(p, cert)


def test_long_certificate_rejected_in_bounded_memory(tmp_path, capsys):
    # p = 1 against q1 = 2000 ones (about 4 KB): C is not p's plain matrix,
    # whose entries are C(2000, k).  Expanding C into monomials would build a
    # binomial row per entry of C, about 2 million numbers of up to 2000
    # bits; the row comparison stops at row 1.
    poly = tmp_path / "poly.txt"
    poly.write_text("variables: 2\ncoeffs:\n1\n")
    cert = tmp_path / "cert.txt"
    cert.write_text(
        "method: raise\nq1: 2000\nq2: 0\nconvention: plain\ntool_version: 0.1.0\nC:\n"
        + "1\n" * 2001
    )
    reason = "expansion mismatch at monomial x1^1 x2^0: expansion gives -1999, polynomial has 0"
    tracemalloc.start()
    try:
        code = main(["verify", str(poly), str(cert)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"status=invalid reason={reason.replace(' ', '_')}\n"
    assert peak < 20 * 2**20


def test_verify_stops_at_the_first_bad_row(tmp_path, capsys):
    # p = 1 against q1 = 20000 ones (about 40 KB).  p's plain matrix there,
    # C(20000, k) for k = 0..20000, holds about 36 MB of integers; the rows
    # are made one at a time, and row 1 already differs.
    poly = tmp_path / "poly.txt"
    poly.write_text("variables: 2\ncoeffs:\n1\n")
    cert = tmp_path / "cert.txt"
    cert.write_text(
        "method: raise\nq1: 20000\nq2: 0\nconvention: plain\ntool_version: 0.1.0\nC:\n"
        + "1\n" * 20001
    )
    parsed = parse_certificate_document(cert.read_text()).to_certificate()
    reason = "expansion mismatch at monomial x1^1 x2^0: expansion gives -19999, polynomial has 0"
    tracemalloc.start()
    try:
        result = verify(BPoly([[1]]), parsed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.reason == reason
    assert peak < 2 * 2**20
    assert main(["verify", str(poly), str(cert)]) == 2
    assert capsys.readouterr().err == f"status=invalid reason={reason.replace(' ', '_')}\n"


def test_x1_pass_is_made_row_by_row(tmp_path, capsys):
    # p = 1 + x1 against a document that claims q1 = 10^8 and holds 2 rows.
    # The x1 table of p is not one constant, so a pass that built its
    # q1 + 1 columns up front would take gigabytes; the rows are made one
    # at a time, and the file ends after row 1.
    poly = tmp_path / "poly.txt"
    poly.write_text("variables: 2\ncoeffs:\n1\n1\n")
    cert = tmp_path / "cert.txt"
    cert.write_text(
        "method: raise\nq1: 100000000\nq2: 0\nconvention: plain\ntool_version: 0.1.0\nC:\n1\n2\n"
    )
    tracemalloc.start()
    try:
        code = main(["verify", str(poly), str(cert)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "status=parse-error detail=coefficient_matrix_must_be_100000001_x_1\n"
    )
    assert peak < 2**20


def _from_integers(q1, q2, numerators, denominators):
    return PositivityCertificate.from_integers(q1, q2, numerators, denominators, Method.RAISE)


# Malformed certificates from both constructors, each with its exact message;
# only the integer form can give a denominator that is not positive.
MALFORMED = {
    "rows": (lambda: _matrix(1, 1, [[1, 1]]), "expected 2 rows, got 1"),
    "columns": (lambda: _matrix(1, 1, [[1, 1], [1, 1, 1]]), "expected 2 columns, got 3"),
    "integer-rows": (
        lambda: _from_integers(1, 1, [[1, 1]], [[1, 1]]), "expected 2 rows, got 1"),
    "integer-columns": (
        lambda: _from_integers(1, 1, [[1, 1], [1, 1]], [[1, 1], [1]]),
        "expected 2 columns, got 1"),
    "zero-denominator": (
        lambda: _from_integers(1, 1, [[1, 1], [1, 1]], [[1, 1], [0, 1]]),
        "denominators must be positive"),
    "negative-denominator": (
        lambda: _from_integers(1, 1, [[1, 1], [1, 1]], [[1, -2], [1, 1]]),
        "denominators must be positive"),
    "int-denominator-rows": (
        lambda: _from_integers(2, 1, [[1, 1], [1, 1]], 3), "expected 3 rows, got 2"),
    "int-denominator-columns": (
        lambda: _from_integers(1, 1, [[1, 1, 1], [1, 1, 1]], 3), "expected 2 columns, got 3"),
    "int-zero-denominator": (
        lambda: _from_integers(1, 1, [[1, 1], [1, 1]], 0), "denominators must be positive"),
}


def test_certificate_equality_and_hash():
    # Equal values hash equal; a certificate is never equal to anything else.
    made = certify_raise(PLANE)
    cert = _from_integers(made.q1, made.q2, made.numerators, made.denominators)
    doubled = _from_integers(
        cert.q1, cert.q2, [[2 * n for n in row] for row in cert.numerators],
        [[2 * d for d in row] for row in cert.denominators],
    )
    assert doubled == cert and hash(doubled) == hash(cert)
    assert hash(cert) == hash((cert.q1, cert.q2, Method.RAISE))
    assert cert.__eq__(cert.coefficients) is NotImplemented
    assert cert != cert.coefficients


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_certificate_message(name):
    build, message = MALFORMED[name]
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


# The text path: verify compares each C: line with the writer's text of p's
# row and parses only a line that differs.

def _document_text(cert) -> str:
    return serialize_certificate_document(CertificateDocument.from_certificate(cert))


def _verify_text(p, text):
    """What ``berncert verify`` concludes for a certificate document's text."""
    reader = CertificateReader(text.splitlines())
    return verify_rows(p, reader.q1, reader.q2, reader.checked_rows)


def _non_canonical(text: str) -> str:
    """text with each C: token in another form of its value, n/d as 2n/2d
    and an integer n as n/1, the tokens of a line split by a tab or a run
    of blanks."""
    head, _, rest = text.partition("C:\n")
    block, marker, report = rest.partition("report:\n")
    lines = []
    for k, line in enumerate(block.splitlines()):
        tokens = [
            f"{2 * int(num)}/{2 * int(den)}" if den else f"{num}/1"
            for num, _, den in (token.partition("/") for token in line.split())
        ]
        lines.append(("\t", "   ", " \t ")[k % 3].join(tokens) + "\n")
    return head + "C:\n" + "".join(lines) + marker + report


@pytest.fixture(scope="module")
def corpus_certificates():
    """(p, certificate) for every corpus polynomial and both methods."""
    return [
        (p, certify(p)) for _, p in BIVARIATE_CORPUS for certify in (certify_nested, certify_raise)
    ]


@pytest.mark.parametrize("method, p", [
    ("raise", WORKED),
    ("nested", dict(BIVARIATE_CORPUS)["1+x1/2-x2/3"]),  # rows over D = 6
    ("nested", dict(BIVARIATE_CORPUS)["1+x1^2+x2"]),  # rows over D = 1
])
def test_canonical_certificate_rows_are_not_parsed(tmp_path, monkeypatch, method, p):
    poly, cert = tmp_path / "poly.txt", tmp_path / "cert.txt"
    poly.write_text(serialize_polynomial_document(PolynomialDocument(2, p.coeffs)))
    assert main(["certify", str(poly), str(cert), "--method", method]) == 0
    parsed, parse = [], documents._parse_row
    monkeypatch.setattr(documents, "_parse_row", lambda line: parsed.append(line) or parse(line))
    assert main(["verify", str(poly), str(cert)]) == 0
    assert parsed == poly.read_text().splitlines()[2:]  # p's rows alone


def test_non_canonical_certificates_verify_alike(corpus_certificates):
    # Plus p's own plain matrix at degrees too low: its entry (1, 1) is -3/2.
    low = _from_integers(2, 2, *plain_coeffs(WORKED, 2, 2))
    for p, cert in corpus_certificates + [(WORKED, low)]:
        text = _document_text(cert)
        assert _verify_text(p, _non_canonical(text)) == _verify_text(p, text) == verify(p, cert)


def test_perturbed_certificates_give_one_reason_on_both_paths(corpus_certificates):
    # Entry (q1 // 2, q2 // 2) made 0 (a sign and a value fault) or raised by 1/3.
    for k, (p, cert) in enumerate(corpus_certificates):
        i, j = cert.q1 // 2, cert.q2 // 2
        value = 0 if k % 2 else cert.coefficients[i][j] + Fraction(1, 3)
        bad = _with_entry(cert, i, j, value)
        text = _document_text(bad)
        result = verify(p, bad)
        assert not result
        assert _verify_text(p, text) == _verify_text(p, _non_canonical(text)) == result
