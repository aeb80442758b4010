"""Certificates as streams of rows: ``certify`` writes and ``verify`` reads
the ``C:`` block one row at a time, so neither holds the whole document."""

import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from berncert import BPoly, CertificationError, Method, certify_nested, certify_raise, verify
from berncert.certificates import CertificateRows, plain_rows
from berncert.cli import _document_lines, main
from berncert.documents import (
    CertificateDocument,
    ParseError,
    parse_certificate_document,
    serialize_certificate_document,
)

# (x1 - 31/64)^2 + 1/1000, a near-zero input that certifies by raise at
# (256, 256): 66,049 entries, about 7 MB of text.
A = Fraction(31, 64)
NEAR_ZERO = BPoly([[A * A + Fraction(1, 1000), 0], [-2 * A, 0], [1, 0]])
NEAR_ZERO_TEXT = f"variables: 2\ncoeffs:\n{A * A + Fraction(1, 1000)} 0\n{-2 * A} 0\n1 0\n"
SPHERE = "variables: 2\ncoeffs:\n1 0 1\n0 0 0\n1 0 0\n"
WORKED = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])  # (x1-x2)^2 + 1/8
PLANE = BPoly([[1, 1], [1, 0]])  # 1 + x1 + x2
THIRDS = BPoly([[1, Fraction(-1, 3)], [Fraction(1, 2), 0]])  # 1 + x1/2 - x2/3


def _poly_text(p: BPoly) -> str:
    return "variables: 2\ncoeffs:\n" + "\n".join(" ".join(map(str, row)) for row in p.coeffs) + "\n"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def near_zero(tmp_path_factory):
    """The near-zero polynomial file and its certificate, made once."""
    work = tmp_path_factory.mktemp("near-zero")
    poly, cert = work / "poly.txt", work / "cert.txt"
    poly.write_text(NEAR_ZERO_TEXT)
    assert main(["certify", str(poly), str(cert), "--method", "raise"]) == 0
    return poly, cert


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_memory_is_bounded_by_a_row(near_zero, tmp_path, capsys):
    poly, cert = near_zero
    out = tmp_path / "again.txt"
    assert _peak(["certify", str(poly), str(out), "--method", "raise"]) < 1 << 20
    assert capsys.readouterr().out == "certified method=raise q1=256 q2=256\n"
    assert out.read_bytes() == cert.read_bytes()


def test_verify_memory_is_bounded_by_a_row(near_zero, capsys):
    poly, cert = near_zero
    assert _peak(["verify", str(poly), str(cert)]) < 1 << 20
    assert capsys.readouterr().out == "ok\n"



def test_tall_matrix_is_made_one_row_at_a_time():
    # The x1 pass reads p's three columns in step and lists nothing of
    # length q1: at (4096, 2) such a list would hold megabytes of integers.
    tracemalloc.start()
    try:
        rows, _ = plain_rows(WORKED, 4096, 2)
        count = sum(1 for _ in rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 4097
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "p, method",
    [(WORKED, "raise"), (PLANE, "raise"), (PLANE, "nested"), (THIRDS, "raise"), (THIRDS, "nested")],
    ids=["worked-raise", "plane-raise", "plane-nested", "thirds-raise", "thirds-nested"],
)
def test_cli_writes_the_serialized_document(tmp_path, p, method):
    poly, out = tmp_path / "poly.txt", tmp_path / "cert.txt"
    poly.write_text(_poly_text(p))
    assert main(["certify", str(poly), str(out), "--method", method]) == 0
    cert = {"raise": certify_raise, "nested": certify_nested}[method](p)
    text = serialize_certificate_document(CertificateDocument.from_certificate(cert))
    assert out.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("bad, col", [([-3, 2, 2], 0), ([7, 0, -1], 1), ([1, 1, -1], 2)])
def test_certificate_rows_stop_at_the_first_nonpositive_row(method, k, bad, col):
    # Every certificate's rows are checked as they are read, whichever
    # method chose the degrees: the good rows before the bad one pass.
    rows = [[1, 2, 3]] * k + [bad, [1, 1, 1]]
    message = (
        f"row {k} produced a nonpositive coefficient at {col}; "
        "the certified bounds did not give a sufficient degree"
    )
    cert = CertificateRows(k + 1, 2, method, None, iter(rows), 5)
    read = []
    with pytest.raises(CertificationError) as exc:
        for row in cert.rows:
            read.append(row)
    assert (read, str(exc.value)) == (rows[:k], message)
    with pytest.raises(CertificationError) as exc:
        CertificateRows(k + 1, 2, method, None, iter(rows), 5).collect()
    assert str(exc.value) == message


# Every place str.splitlines ends a line; blank and comment lines between.
SEPARATORS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _with_separators(text: str) -> str:
    out = []
    for i, line in enumerate(text.split("\n")[:-1]):
        sep = SEPARATORS[i % len(SEPARATORS)]
        out.append(line + sep)
        if i % 3 == 0:
            out.append(f"# comment{sep}  {sep}")
    return "".join(out)


@pytest.mark.parametrize("tamper", [False, True], ids=["valid", "perturbed"])
def test_line_separators_give_the_same_verdict_from_text_and_file(tmp_path, capsys, tamper):
    cert = certify_raise(WORKED)
    text = serialize_certificate_document(CertificateDocument.from_certificate(cert))
    if tamper:
        head, rest = text.split("\nC:\n", 1)
        first, rest = rest.split(" ", 1)
        text = f"{head}\nC:\n{Fraction(first) + Fraction(1, 10**9)} {rest}"
    odd = _with_separators(text)
    assert odd.count("\n") < text.count("\n")
    doc = parse_certificate_document(odd)
    assert doc == parse_certificate_document(text)
    result = verify(WORKED, doc.certificate)
    assert bool(result) is not tamper
    poly, path = tmp_path / "poly.txt", tmp_path / "cert.txt"
    poly.write_text(_poly_text(WORKED))
    path.write_bytes(odd.encode("utf-8"))
    code, out, err = _run(capsys, ["verify", str(poly), str(path)])
    if tamper:
        assert (code, out) == (2, "")
        assert err == f"status=invalid reason={result.reason.replace(' ', '_')}\n"
    else:
        assert (code, out, err) == (0, "ok\n", "")


def _decode_error(data: bytes) -> str:
    """The parse-error record of bytes that are not UTF-8, read whole."""
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8")
    return f"status=parse-error detail={str(exc.value).replace(' ', '_')}\n"


def test_bad_bytes_deep_in_the_block_are_parse_error(near_zero, tmp_path, capsys):
    poly, cert = near_zero
    data = bytearray(cert.read_bytes())
    at = len(data) // 2  # megabytes into the C: block, past the first chunk
    assert data.index(b"\nC:\n") < 1 << 10 and b"report:" not in data[:at]
    data[at] = 0xFF
    bad = tmp_path / "bad.txt"
    bad.write_bytes(bytes(data))
    code, out, err = _run(capsys, ["verify", str(poly), str(bad)])
    assert (code, out) == (1, "")
    assert err.startswith("status=parse-error detail='utf-8'_codec_can't_decode_byte_0xff")
    assert err == _decode_error(bytes(data))


HEAD = b"method: raise\nq1: 1\nq2: 1\nconvention: plain\ntool_version: 0.1.0\nC:\n"


@pytest.mark.parametrize(
    "at, bad",
    [(len(HEAD), b"\xff"), (8191, b"\xe2\x80"), (8190, b"\xf0\x9f\x98"), (None, b"\xe2\x80")],
    ids=["block-start", "across-8k", "across-8k-4byte", "cut-at-end"],
)
def test_bad_bytes_give_the_whole_file_record(tmp_path, capsys, at, bad):
    # Positions count from the file's start, wherever the reads are cut.
    data = bytearray(HEAD + b"1 1\n" * 5000)
    if at is None:
        data += bad
    else:
        data[at : at + len(bad)] = bad
    poly, path = tmp_path / "poly.txt", tmp_path / "bad.txt"
    poly.write_text(SPHERE)
    path.write_bytes(bytes(data))
    code, out, err = _run(capsys, ["verify", str(poly), str(path)])
    assert (code, out, err) == (1, "", _decode_error(bytes(data)))


def test_bad_bytes_win_over_an_earlier_header_fault(tmp_path, capsys):
    # The text is decoded before it is parsed: bytes that are not UTF-8,
    # anywhere, are the fault reported, as when the file was read whole.
    poly, bad = tmp_path / "poly.txt", tmp_path / "bad.txt"
    poly.write_text(SPHERE)
    bad.write_bytes(b"method raise\nC:\n" + b"1 1\n" * 50000 + b"\xff\n")
    code, out, err = _run(capsys, ["verify", str(poly), str(bad)])
    assert (code, out) == (1, "")
    assert err.startswith("status=parse-error detail='utf-8'_codec_can't_decode_byte_0xff")


def test_bad_last_byte_is_found_in_chunks(tmp_path, capsys):
    # A header fault, 20 MB of long rows, then a byte that is not UTF-8:
    # the record's position counts from the file's start, and the file is
    # decoded one line at a time, not read whole.
    poly, bad = tmp_path / "poly.txt", tmp_path / "bad.txt"
    poly.write_text(SPHERE)
    with open(bad, "wb") as handle:
        handle.write(b"method raise\nC:\n")
        for _ in range(500):
            handle.write(b"1 " * 20000 + b"\n")
        handle.write(b"\xff")
    size = bad.stat().st_size
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, ["verify", str(poly), str(bad)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 20 * 10**6
    assert (code, out) == (1, "")
    assert err == (
        "status=parse-error detail='utf-8'_codec_can't_decode_byte_0xff_in_position_"
        f"{size - 1}:_invalid_start_byte\n"
    )
    assert peak < 1 << 20


# Pieces of a file around line ends: ASCII, every line end the reader must
# keep apart (LF only ends a read line), whole and cut multibyte characters.
DECODE_PIECES = [
    b"a", b"1 2", b"\n", b"\r\n", b"\r", "\u2028".encode(), "\xe9".encode(),
    "\U0001f600".encode(), b"\xf0\x9f\x98", b"\xe2\x80", b"\xc3", b"\x80", b"\xff",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0, (1 << 16) - 2, 1 << 16]),
    st.lists(st.one_of(st.sampled_from(DECODE_PIECES), st.binary(max_size=3)), max_size=30),
)
def test_chunked_decode_gives_the_whole_file_text(length, pieces):
    # Decoded line by line, a file gives the pieces str.splitlines gives for
    # its whole text, or the error text of decoding it whole; a long first
    # line puts the rest across the reader's 64 KB buffer.
    data = b"a" * length + b"".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.txt")
        path.write_bytes(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            with pytest.raises(ParseError) as info:
                list(_document_lines(str(path)))
            assert str(info.value) == str(exc)
        else:
            assert list(_document_lines(str(path))) == text.splitlines()


@pytest.mark.parametrize(
    "tail",
    [
        b"1 1\nreport:\nc_min: 1\xff\nbound: 0\n",
        b"1 1\nreport:\nno pair\nbound: \xff0\n",
        b"1 x\n1 1\nreport:\nbound: \xff0\n",
    ],
    ids=["in-report", "after-report-fault", "after-bad-row"],
)
def test_bad_bytes_in_the_report_give_the_whole_file_record(tmp_path, capsys, tail):
    # The report is read after the rows: a byte that is not UTF-8 there is
    # still the fault reported, before a bad report line or a bad row.
    data = HEAD + b"1 1\n" + tail
    poly, path = tmp_path / "poly.txt", tmp_path / "bad.txt"
    poly.write_text(SPHERE)
    path.write_bytes(data)
    code, out, err = _run(capsys, ["verify", str(poly), str(path)])
    assert (code, out, err) == (1, "", _decode_error(data))
