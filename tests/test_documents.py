"""Document formats: parsing, serialization, lossless round trips."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berncert import (
    BPoly,
    Method,
    PositivityCertificate,
    UPoly,
    certify_nested,
    certify_raise,
    verify,
)
from berncert.documents import (
    CertificateDocument,
    ParseError,
    PolynomialDocument,
    parse_certificate_document,
    parse_polynomial_document,
    parse_rational,
    serialize_certificate_document,
    serialize_polynomial_document,
)

WORKED_TEXT = """\
# (x1 - x2)^2 + 1/8
variables: 2
coeffs:
1/8 0 1
0 -2 0
1 0 0
"""


class TestRationalTokens:
    def test_integer_and_fraction(self):
        assert parse_rational("5") == 5
        assert parse_rational("-7/3") == Fraction(-7, 3)

    def test_canonicalized(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    @pytest.mark.parametrize(
        "token",
        ["1.5", "a", "1/2/3", "--3", "", "1e3", "\u0663", "\u0663/\u0664", "1_0", "+1", "\uff11"],
    )
    def test_malformed_rejected(self, token):
        with pytest.raises(ParseError):
            parse_rational(token)

    @pytest.mark.parametrize(
        "token",
        ["7" * 5000, "1/" + "3" * 5000, "-" + "9" * 4301],
        ids=["integer", "denominator", "negative"],
    )
    def test_overlong_integer_rejected(self, token):
        with pytest.raises(ParseError):
            parse_rational(token)


class TestPolynomialDocument:
    def test_parse_worked_example(self):
        doc = parse_polynomial_document(WORKED_TEXT)
        assert doc.variables == 2
        p = doc.to_bpoly()
        assert p.eval(1, 0) == Fraction(9, 8)

    def test_round_trip(self):
        doc = parse_polynomial_document(WORKED_TEXT)
        assert parse_polynomial_document(serialize_polynomial_document(doc)) == doc

    def test_univariate_round_trip(self):
        doc = PolynomialDocument.from_upoly(UPoly([1, Fraction(-2, 3), 5]))
        again = parse_polynomial_document(serialize_polynomial_document(doc))
        assert again == doc
        assert again.to_upoly() == UPoly([1, Fraction(-2, 3), 5])

    def test_bad_variable_count(self):
        with pytest.raises(ParseError):
            parse_polynomial_document("variables: 3\ncoeffs:\n1\n")

    def test_univariate_needs_single_row(self):
        with pytest.raises(ParseError):
            parse_polynomial_document("variables: 1\ncoeffs:\n1 2\n3 4\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial_document("variables: 2\ncoeffs:\n1 2\n3\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial_document("coeffs:\n1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "variables: \u0662\ncoeffs:\n\u0663/\u0664 1\n",
            "variables: \u0662\ncoeffs:\n3/4 1\n",
            "variables: 2\ncoeffs:\n\u0663/\u0664 1\n",
            "variables: 0_2\ncoeffs:\n1\n",
            "variables: +2\ncoeffs:\n1\n",
        ],
        ids=["arabic-indic", "arabic-indic-header", "arabic-indic-entry", "underscore", "plus"],
    )
    def test_non_ascii_or_non_decimal_numbers_rejected(self, text):
        with pytest.raises(ParseError):
            parse_polynomial_document(text)

    def test_wrong_arity_accessors(self):
        doc = parse_polynomial_document(WORKED_TEXT)
        with pytest.raises(ParseError):
            doc.to_upoly()


class TestCertificateDocument:
    def test_round_trip_raise(self):
        p = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])
        cert = certify_raise(p)
        doc = CertificateDocument.from_certificate(cert)
        text = serialize_certificate_document(doc)
        again = parse_certificate_document(text)
        assert again == doc
        assert again.to_certificate().coefficients == cert.coefficients

    def test_round_trip_nested(self):
        p = BPoly([[1, 1], [1, 0]])
        cert = certify_nested(p)
        doc = CertificateDocument.from_certificate(cert)
        again = parse_certificate_document(serialize_certificate_document(doc))
        assert again == doc
        assert dict(again.report)["lambda_lower"] == "1"

    def test_matrix_shape_enforced(self):
        text = (
            "method: raise\nq1: 2\nq2: 2\nconvention: plain\n"
            "tool_version: 0.1.0\nC:\n1 2 1\n2 4 2\n"
        )
        with pytest.raises(ParseError):
            parse_certificate_document(text)

    def test_unknown_method_rejected(self):
        text = (
            "method: magic\nq1: 0\nq2: 0\nconvention: plain\n"
            "tool_version: 0.1.0\nC:\n1\n"
        )
        with pytest.raises(ParseError):
            parse_certificate_document(text)

    def test_unknown_convention_rejected(self):
        text = (
            "method: raise\nq1: 0\nq2: 0\nconvention: normalized\n"
            "tool_version: 0.1.0\nC:\n1\n"
        )
        with pytest.raises(ParseError):
            parse_certificate_document(text)

    @pytest.mark.parametrize(
        "headers",
        ["q1: 0_0\nq2: 0", "q1: 0\nq2: +0", "q1: \u0660\nq2: 0", "q1: 0\nq2: -0"],
        ids=["underscore", "plus", "arabic-indic", "minus"],
    )
    def test_non_decimal_degree_headers_rejected(self, headers):
        text = f"method: raise\n{headers}\nconvention: plain\ntool_version: 0.1.0\nC:\n1\n"
        with pytest.raises(ParseError):
            parse_certificate_document(text)

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate_document("method: raise\nq1: 0\nq2: 0\n")


# Lines and tokens that steer generated text into the parsers' deeper branches.
LINES = [
    "variables: 2", "variables: 1", "variables: x", "coeffs:", "method: raise",
    "method: nested", "q1: 1", "q2: 0", "q1: -1", "q2: 1_0", "convention: plain",
    "tool_version: 0.1.0", "C:", "report:", "c_min: 1", "# comment", "",
]
TOKENS = ["0", "1", "-3", "1/2", "0/0", "1/0", "7" * 4301, "1/" + "3" * 4400, "\u0663"]

rows = st.lists(
    st.lists(st.sampled_from(TOKENS) | st.text(max_size=4), max_size=4).map(" ".join),
    max_size=4,
).map("\n".join)
documents = st.one_of(
    st.text(),
    st.lists(st.sampled_from(LINES + TOKENS) | st.text(max_size=8), max_size=12).map(
        "\n".join
    ),
    rows.map(lambda body: "variables: 2\ncoeffs:\n" + body),
    rows.map(
        lambda body: "method: raise\nq1: 1\nq2: 1\nconvention: plain\n"
        "tool_version: 0.1.0\nC:\n" + body
    ),
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_polynomial_document, parse_certificate_document):
        try:
            parse(text)
        except ParseError:
            pass


# The integer document path: certificates hold integer numerators over
# denominators, written in lowest terms and read back as written.

WORKED = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])  # (x1-x2)^2 + 1/8


def _c_tokens(text: str) -> list[str]:
    return text.split("\nC:\n", 1)[1].split("\nreport:\n", 1)[0].split()


@st.composite
def kernel_matrices(draw):
    """(q1, q2, N, D) with D > 0 built from shared small primes, entries of
    either sign and some multiples of D (integers once reduced)."""
    q1, q2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    den = 1
    for prime in draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=6)):
        den *= prime

    def entry():
        if draw(st.booleans()):
            return draw(st.integers(-50, 50)) * den
        return draw(st.integers(-(10**30), 10**30))

    return q1, q2, [[entry() for _ in range(q2 + 1)] for _ in range(q1 + 1)], den


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
def test_serialized_integers_are_lowest_terms_tokens(case):
    q1, q2, nums, den = case
    cert = PositivityCertificate.from_integers(q1, q2, nums, den, Method.RAISE)
    text = serialize_certificate_document(CertificateDocument.from_certificate(cert))
    reduced = [[Fraction(v, den) for v in row] for row in nums]
    assert _c_tokens(text) == [str(c) for row in reduced for c in row]
    again = parse_certificate_document(text)
    assert again.certificate.numerators == tuple(
        tuple(c.numerator for c in row) for row in reduced
    )
    assert again.certificate.denominators == tuple(
        tuple(c.denominator for c in row) for row in reduced
    )
    assert again == CertificateDocument.from_certificate(cert)


@functools.cache
def _certified(case: str):
    p, certify = {
        "raise": (WORKED, certify_raise),
        "nested": (BPoly([[1, 1], [1, 0]]), certify_nested),  # 1 + x1 + x2 at (16, 16)
    }[case]
    cert = certify(p)
    return p, cert, serialize_certificate_document(CertificateDocument.from_certificate(cert))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["raise", "nested"]), st.data())
def test_verify_accepts_unreduced_and_mixed_denominators(case, data):
    p, cert, text = _certified(case)
    scaled = []
    for token in _c_tokens(text):
        num, _, den = token.partition("/")
        k = data.draw(st.integers(1, 12))
        scaled.append(f"{int(num) * k}/{int(den or 1) * k}")
    width = cert.q2 + 1
    rows = [" ".join(scaled[i:i + width]) for i in range(0, len(scaled), width)]
    head, rest = text.split("\nC:\n", 1)
    report = rest.partition("\nreport:\n")[2]
    doc = parse_certificate_document(
        f"{head}\nC:\n" + "\n".join(rows) + f"\nreport:\n{report}"
    )
    assert doc == CertificateDocument.from_certificate(cert)
    assert verify(p, doc.to_certificate())


@pytest.mark.parametrize(
    "token",
    ["1/0", "0/0", "-3/00", "٣", "1/٤", "１", "7" * 5000, "1/" + "3" * 5000],
    ids=["zero-den", "zero-zero", "zero-den-padded", "arabic-indic", "arabic-indic-den",
         "full-width", "overlong", "overlong-den"],
)
@pytest.mark.parametrize("column", [0, 1])
def test_bad_certificate_tokens_are_parse_error(token, column):
    entries = ["1", "2/3"]
    entries[column] = token
    text = (
        "method: raise\nq1: 0\nq2: 1\nconvention: plain\ntool_version: 0.1.0\nC:\n"
        + " ".join(entries) + "\n"
    )
    with pytest.raises(ParseError):
        parse_certificate_document(text)
