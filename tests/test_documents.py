"""Document formats: parsing, serialization, lossless round trips."""

import ast
import functools
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from berncert import (
    BPoly,
    Method,
    PositivityCertificate,
    UPoly,
    certify_nested,
    certify_raise,
    verify,
)
from berncert import documents as docs
from berncert.cli import _document_lines
from berncert.documents import (
    CertificateDocument,
    ParseError,
    TooLargeError,
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
        doc = PolynomialDocument(1, (UPoly([1, Fraction(-2, 3), 5]).coeffs,))
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

    def test_univariate_document_is_not_bivariate(self):
        doc = parse_polynomial_document("variables: 1\ncoeffs:\n1 2\n")
        with pytest.raises(ParseError, match="^document is not bivariate$"):
            doc.to_bpoly()

    @pytest.mark.parametrize("text", ["variables: 2\n1 2\n", "variables: 2\n"], ids=["row", "end"])
    def test_missing_coeffs_line_rejected(self, text):
        with pytest.raises(ParseError, match="^expected a 'coeffs:' line$"):
            parse_polynomial_document(text)


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


# The row parser's split-and-int path against the grammar's regex and
# token-by-token path, its oracle: the same rows or the same ParseError text.
ROW_TOKENS = [
    "0", "1", "-3", "1/2", "2/4", "-0", "007", "00/01", "1/02", "+5", "1_0", "\u0663",
    "1/\u0664", "\uff11", "1/", "/2", "/", "1/0", "0/0", "1/-2", "1/1", "1/+2", "--1", "-",
    "1/2/3", "1//2", "x", "1e3", "7" * 4301, "1/" + "3" * 4301, "-" + "9" * 4300,
]
row_lines = st.lists(
    st.sampled_from(ROW_TOKENS)
    | st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)
    | st.text(max_size=4),
    min_size=1,
    max_size=6,
).flatmap(
    lambda tokens: st.lists(
        st.sampled_from([" ", "  ", "\t", "\x0b", "\u2003", "\xa0"]),
        min_size=len(tokens) - 1,
        max_size=len(tokens) - 1,
    ).map(lambda seps: "".join(t + s for t, s in zip(tokens, seps + [""])).strip())
)


def _row_outcome(parse, line):
    try:
        return parse(line)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(row_lines.filter(bool))
def test_row_parser_matches_the_grammar(line):
    assert _row_outcome(docs._parse_row, line) == _row_outcome(docs._parse_tokens, line)


@pytest.mark.parametrize(
    "line", ["+5 1", "1_0 1", "1 \u0663", "1/", "/2 1", "1/0", "1/-2", "--1", "1/2/3", "7" * 4301]
)
def test_row_parser_falls_back_with_the_grammars_error(line):
    with pytest.raises(ParseError) as fast:
        docs._parse_row(line)
    with pytest.raises(ParseError) as oracle:
        docs._parse_tokens(line)
    assert str(fast.value) == str(oracle.value)


# verify reads a certificate as the lines of a file, each b"\n"-terminated
# line decoded and split again by str.splitlines: that splits where
# str.splitlines splits the whole text (a CR LF is never cut, as LF ends it).
LINE_PIECES = [
    "a", "1 2", " ", "#", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\u2028", "\u2029", "\xe9", "\U0001d7d9",
]


def _file_lines(data: bytes) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.txt")
        path.write_bytes(data)
        return list(_document_lines(str(path)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=30).map("".join))
def test_file_lines_split_as_splitlines(text):
    assert _file_lines(text.encode("utf-8")) == text.splitlines()


def _document_outcome(text):
    """What parse_certificate_document gives for text, and what the streaming
    reader gives for it read from a file."""
    def parsed():
        try:
            doc = parse_certificate_document(text)
        except ParseError as exc:
            return str(exc)
        cert = doc.certificate
        return cert.q1, cert.q2, cert.numerators, cert.denominators, doc.report

    def streamed():
        try:
            reader = docs.CertificateReader(_file_lines(text.encode()))
            rows = list(reader.rows())
        except ParseError as exc:
            return str(exc)
        nums, dens = (tuple(part) for part in zip(*rows))
        return reader.q1, reader.q2, nums, dens, tuple(reader.report)

    return parsed(), streamed()


@settings(max_examples=300, deadline=None)
@given(documents)
def test_streamed_document_matches_text(text):
    parsed, streamed = _document_outcome(text)
    assert parsed == streamed


def test_documents_imports_no_certifier():
    # The document format knows certificates, not how they were made: a
    # report gives its own ``report:`` pairs, so documents imports neither
    # certifier module, under any spelling of the import.
    modules = set()
    for node in ast.walk(ast.parse(Path(docs.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            if node.module is None:  # from . import name
                modules.update(alias.name for alias in node.names)
    names = {module.rpartition(".")[2] for module in modules}
    assert "__version__" in names and "certificates" in names  # the walk sees both forms
    assert not names & {"raising", "nested"}, sorted(modules)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=5),
                min_size=1, max_size=5))
def test_polynomial_rows_written_as_str_gives_them(rows):
    p = BPoly(rows)
    text = serialize_polynomial_document(PolynomialDocument(2, p.coeffs))
    expected = "variables: 2\ncoeffs:\n" + "".join(" ".join(map(str, r)) + "\n" for r in p.coeffs)
    assert text == expected
    assert parse_polynomial_document(text).to_bpoly() == p


def test_polynomial_number_past_digit_limit_is_too_large():
    # 3**9100 has 4342 digits: the polynomial writer refuses it as the
    # certificate writer does, not with a bare ValueError from str().
    doc = PolynomialDocument(2, BPoly([[Fraction(1, 3**9100), 1]]).coeffs)
    with pytest.raises(TooLargeError) as info:
        serialize_polynomial_document(doc)
    assert str(info.value) == "a polynomial coefficient has over 4300 digits"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=8),
    st.one_of(st.just(None), st.lists(st.integers(1, 12), min_size=8, max_size=8)),
)
@example([0, -3, 5], None)  # denominators all 1
@example([1, 3], [1, 2])  # a 1 beside another denominator
def test_row_is_written_as_str_of_its_fractions(nums, dens):
    dens = [1] * len(nums) if dens is None else dens[: len(nums)]
    line = docs._format_row(nums, dens)
    assert line == " ".join(str(Fraction(n, d)) for n, d in zip(nums, dens))


def test_integer_row_past_digit_limit_is_too_large():
    # A row over 1 is written by str() alone, which refuses the same numbers.
    with pytest.raises(TooLargeError) as info:
        docs._written("a certificate number", docs._format_row, [1, 10**4400], [1, 1])
    assert str(info.value) == "a certificate number has over 4300 digits"
