"""Command line interface: subcommands, exit codes, diagnostics."""

import io
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import berncert
from berncert import BPoly, PositivityCertificate, cli, nested, raising
from berncert.cli import main
from berncert.documents import (
    CertificateDocument,
    ParseError,
    PolynomialDocument,
    parse_certificate_document,
    serialize_certificate_document,
    serialize_polynomial_document,
)
from berncert.polys import rat_text

WORKED = """\
variables: 2
coeffs:
1/8 0 1
0 -2 0
1 0 0
"""

SPHERE = """\
variables: 2
coeffs:
1 0 1
0 0 0
1 0 0
"""

NEGATIVE = """\
variables: 2
coeffs:
-1 0
0 1
"""

UNI = """\
variables: 1
coeffs:
0 1
"""


@pytest.fixture
def poly_file(tmp_path):
    def write(text, name="poly.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestEval:
    def test_worked_example_point(self, poly_file, capsys):
        assert main(["eval", poly_file(WORKED), "--at", "1,0"]) == 0
        assert capsys.readouterr().out.strip() == "9/8"

    def test_constant(self, poly_file, capsys):
        assert main(["eval", poly_file("variables: 2\ncoeffs:\n1\n"), "--at", "1/3,2/3"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_univariate(self, poly_file, capsys):
        assert main(["eval", poly_file(UNI), "--at", "1/7"]) == 0
        assert capsys.readouterr().out.strip() == "1/7"

    def test_arity_mismatch(self, poly_file, capsys):
        assert main(["eval", poly_file(WORKED), "--at", "1/7"]) == 1
        assert "usage-error" in capsys.readouterr().err

    def test_malformed_point(self, poly_file):
        assert main(["eval", poly_file(WORKED), "--at", "0.5,0"]) == 1


class TestCertify:
    def test_raise_on_worked_example(self, poly_file, tmp_path, capsys):
        out = str(tmp_path / "cert.txt")
        code = main(["certify", poly_file(WORKED), out, "--method", "raise"])
        assert code == 0
        doc = parse_certificate_document((tmp_path / "cert.txt").read_text())
        assert doc.certificate.method.value == "raise"
        assert doc.certificate.q1 == doc.certificate.q2 <= 16
        assert main(["verify", poly_file(WORKED), out]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ok"

    def test_nested_on_sphere(self, poly_file, tmp_path):
        out = str(tmp_path / "cert.txt")
        assert main(["certify", poly_file(SPHERE), out, "--method", "nested"]) == 0
        assert main(["verify", poly_file(SPHERE), out]) == 0

    def test_not_positive_gives_witness_and_exit_2(self, poly_file, tmp_path, capsys):
        out = str(tmp_path / "cert.txt")
        code = main(["certify", poly_file(NEGATIVE), out, "--method", "raise"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not-positive" in err
        assert "witness=0,0" in err

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("9/80 -1 1\n-1/2 0 0\n1 0 0",  # (x1-1/4)^2 + (x2-1/2)^2 - 1/5
             "status=not-positive witness=0,1/2 value=-11/80"),
            ("202/1575 -4/5 1\n-2/3 0 0\n1 0 0",  # (x1-1/3)^2 + (x2-2/5)^2 - 1/7
             "status=not-positive witness=1/2,1/2 value=-331/3150"),
            ("1/8\n-1\n1", "status=not-positive witness=1/2,0 value=-1/8"),
            ("27113/51200 -41/32 1\n-23/32 0 0\n1 0 0",  # disc(23/64, 41/64), q = 256
             "status=not-positive witness=23/64,41/64 value=-1/100"),
        ],
        ids=["tie", "denominators", "n2=0", "sweep"],
    )
    def test_not_positive_line_pinned(self, poly_file, tmp_path, capsys, rows, line):
        out = tmp_path / "cert.txt"
        text = "variables: 2\ncoeffs:\n" + rows + "\n"
        assert main(["certify", poly_file(text), str(out), "--method", "raise"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"
        assert not out.exists()

    def test_failed_write_keeps_existing_output(self, poly_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cert.txt"
        out.write_text("previous certificate\n")
        poly = poly_file(SPHERE, "poly.in")
        before = sorted(tmp_path.iterdir())

        class HalfWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(28, "No space left on device")

            def writelines(self, lines):  # as io.IOBase does it
                for line in lines:
                    self.write(line)

        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return HalfWrite(handle) if "w" in mode else handle

        monkeypatch.setattr(berncert.cli, "open", failing_open, raising=False)
        assert main(["certify", poly, str(out), "--method", "raise"]) == 1
        assert capsys.readouterr().err.startswith("status=io-error detail=")
        assert out.read_text() == "previous certificate\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_output_written_with_umask_mode(self, poly_file, tmp_path):
        out = tmp_path / "cert.txt"
        old = os.umask(0o027)
        try:
            assert main(["certify", poly_file(SPHERE), str(out), "--method", "raise"]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640
        assert main(["verify", poly_file(SPHERE), str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.txt", "poly.txt"]

    def test_output_through_symlink_and_pipe(self, poly_file, tmp_path):
        real = tmp_path / "real.cert"
        real.write_text("previous certificate\n")
        link = tmp_path / "link.cert"
        link.symlink_to(real)
        assert main(["certify", poly_file(SPHERE), str(link), "--method", "raise"]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("method: raise\n")

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["certify", poly_file(SPHERE), str(fifo), "--method", "raise"]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [real.read_text()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_univariate_input_rejected(self, poly_file, tmp_path):
        out = str(tmp_path / "cert.txt")
        assert main(["certify", poly_file(UNI), out, "--method", "raise"]) == 1

    def test_q_start_with_nested_rejected(self, poly_file, tmp_path, capsys):
        # --q-start is gone, so nested refuses it as an unknown option.
        out = tmp_path / "cert.txt"
        code = main(
            ["certify", poly_file(SPHERE), str(out), "--method", "nested", "--q-start", "4,4"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "status=usage-error detail=unrecognized_arguments:_--q-start_4,4\n"
        )
        assert not out.exists()

    def test_inconclusive_exit_3(self, poly_file, tmp_path, capsys):
        touching = "variables: 2\ncoeffs:\n1/9\n-2/3\n1\n"  # (x1 - 1/3)^2
        out = str(tmp_path / "cert.txt")
        code = main(
            ["certify", poly_file(touching), out, "--method", "raise", "--max-iter", "3"]
        )
        assert code == 3
        assert capsys.readouterr().err == "status=inconclusive lo=-1/72 hi=103/2304\n"

    def test_nested_inconclusive_has_no_bounds(self, poly_file, tmp_path, capsys):
        # min p lies in [41.26, 44.13]; stage 1 gives up on a row B_k(x2),
        # whose range bounds nothing about min p.
        text = (
            "variables: 2\ncoeffs:\n1827/40 -7/2 9/4 3/2 8/3\n-2 -7/4 -3/2 7/3 -2\n"
            "1/2 0 -2 9 2\n-8/3 9/2 -5/2 1/2 -6\n"
        )
        out = tmp_path / "cert.txt"
        argv = ["certify", poly_file(text), str(out), "--method", "nested", "--max-iter", "0"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "status=inconclusive\n"
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.txt"), "x", "--method", "raise"]) == 1

    @pytest.mark.parametrize("q_start", ["a,b", "4,x", "4", "4,4,4"])
    def test_malformed_q_start(self, poly_file, tmp_path, capsys, q_start):
        # Whatever its value, the removed --q-start is an unknown option.
        out = tmp_path / "cert.txt"
        code = main(
            ["certify", poly_file(SPHERE), str(out), "--method", "raise", "--q-start", q_start]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"status=usage-error detail=unrecognized_arguments:_--q-start_{q_start}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("method", ["nested", "raise"])
    def test_negative_max_iter_rejected(self, poly_file, tmp_path, capsys, method):
        out = str(tmp_path / "cert.txt")
        argv = ["certify", poly_file(SPHERE), out, "--method", method]
        assert main(argv + ["--max-iter", "-3"]) == 1
        assert capsys.readouterr().err.startswith("status=usage-error detail=")
        assert main(argv + ["--max-iter", "0"]) == 0


class TestVerifyCommand:
    def test_tampered_certificate(self, poly_file, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        assert main(["certify", poly_file(SPHERE), str(out), "--method", "raise"]) == 0
        doc = parse_certificate_document(out.read_text())
        cert = doc.certificate
        rows = [list(r) for r in cert.numerators]
        rows[0][0] = 0  # the certificate holds integer numerators over denominators
        tampered = CertificateDocument(
            PositivityCertificate.from_integers(
                cert.q1, cert.q2, rows, cert.denominators, cert.method
            ),
            doc.report,
            doc.tool_version,
        )
        out.write_text(serialize_certificate_document(tampered))
        code = main(["verify", poly_file(SPHERE), str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid" in err and "nonpositive" in err

    def test_certificate_for_other_polynomial(self, poly_file, tmp_path):
        out = str(tmp_path / "cert.txt")
        assert main(["certify", poly_file(SPHERE), out, "--method", "raise"]) == 0
        assert main(["verify", poly_file(WORKED), out]) == 2

    # A well-formed 1 x 2 header; each case breaks it, or its C: block.
    HEAD = "method: raise\nq1: 0\nq2: 1\nconvention: plain\ntool_version: 0.1.0\n"
    MALFORMED = {
        "header-line": ("method raise\nq1: 0\nq2: 1\nC:\n1 1\n",
                        "expected_'key:_value'_line,_got_'method_raise'"),
        "no-C-section": (HEAD, "expected_a_'C:'_section"),
        "missing-header": (HEAD.replace("convention: plain\n", "") + "C:\n1 1\n",
                           "missing_header_'convention'"),
        "bad-q1": (HEAD.replace("q1: 0", "q1: x") + "C:\n1 1\n",
                   "q1_and_q2_must_be_integers"),
        "report-line": (HEAD + "C:\n1 1\nreport:\nc_min 1\n",
                        "expected_'key:_value'_report_line,_got_'c_min_1'"),
        "bad-token": (HEAD + "C:\n1 1/x\n", "malformed_rational_'1/x'"),
        "empty-block": (HEAD + "C:\nreport:\nc_min: 1\n", "empty_coefficient_block"),
        "ragged-rows": (HEAD.replace("q1: 0", "q1: 1") + "C:\n1 1\n1\n",
                        "coefficient_rows_have_inconsistent_lengths"),
        "unknown-method": (HEAD.replace("raise", "magic") + "C:\n1 1\n",
                           "unknown_method_'magic'"),
        "unknown-convention": (HEAD.replace("plain", "normalized") + "C:\n1 1\n",
                               "unknown_convention_'normalized'"),
        "wrong-shape": (HEAD + "C:\n1 1 1\n", "coefficient_matrix_must_be_1_x_2"),
        # Two faults each: the record names the one checked first.
        "header-before-C": ("method raise\n", "expected_'key:_value'_line,_got_'method_raise'"),
        "q2-before-report": (HEAD.replace("q2: 1", "q2: -1") + "C:\n1 1\nreport:\nc_min 1\n",
                             "q1_and_q2_must_be_integers"),
        "q1-past-grid-before-report": (
            HEAD.replace("q1: 0", "q1: 100000000000000000000") + "C:\n1 1\nreport:\nc_min 1\n",
            f"q1_and_q2_must_be_at_most_{sys.maxsize - 1}",
        ),
        "report-before-token": (HEAD + "C:\n1 x\nreport:\nc_min 1\n",
                                "expected_'key:_value'_report_line,_got_'c_min_1'"),
        "token-before-method": (HEAD.replace("raise", "magic") + "C:\n1 1/0\n",
                                "zero_denominator_in_'1/0'"),
        "method-before-convention": (
            HEAD.replace("raise", "magic").replace("plain", "normalized") + "C:\n1 1\n",
            "unknown_method_'magic'",
        ),
        "convention-before-shape": (HEAD.replace("plain", "normalized") + "C:\n1\n",
                                    "unknown_convention_'normalized'"),
        # A row is read before the report that follows it, but a report line
        # still wins over every fault of the rows, and a row fault over a
        # shape fault found earlier in the stream.
        "header-before-no-C": ("q1: 0\nbad\n", "expected_'key:_value'_line,_got_'bad'"),
        "missing-before-q1": (HEAD.replace("tool_version: 0.1.0\n", "").replace("q1: 0", "q1: x")
                              + "C:\n1 1\n", "missing_header_'tool_version'"),
        "report-before-empty": (HEAD + "C:\nreport:\nc_min 1\n",
                                "expected_'key:_value'_report_line,_got_'c_min_1'"),
        "report-before-rows-past-shape": (HEAD + "C:\n1 1\n1 1\n1 x\nreport:\nbad\n",
                                          "expected_'key:_value'_report_line,_got_'bad'"),
        "token-past-shape": (HEAD + "C:\n1 1\n1 x\n", "malformed_rational_'x'"),
        "token-before-ragged": (HEAD.replace("q1: 0", "q1: 1") + "C:\n1 1\n1\n1 x\n",
                                "malformed_rational_'x'"),
        "ragged-before-method": (HEAD.replace("q1: 0", "q1: 1").replace("raise", "magic")
                                 + "C:\n1 1\n1\n", "coefficient_rows_have_inconsistent_lengths"),
        "empty-before-method": (HEAD.replace("raise", "magic") + "C:\nreport:\n",
                                "empty_coefficient_block"),
        "too-many-rows": (HEAD + "C:\n1 1\n1 1\n", "coefficient_matrix_must_be_1_x_2"),
        "C-line-in-block": (HEAD + "C:\n1 1\nC:\n", "malformed_rational_'C:'"),
        # A degree past the largest grid, whose q + 1 values no pass can cut,
        # is a header fault; the largest grid itself is read as usual.
        "q1-past-grid": (HEAD.replace("q1: 0", f"q1: {sys.maxsize}") + "C:\n1 1\n",
                         f"q1_and_q2_must_be_at_most_{sys.maxsize - 1}"),
        "q1-past-grid-1e20": (HEAD.replace("q1: 0", "q1: 100000000000000000000") + "C:\n1 1\n",
                              f"q1_and_q2_must_be_at_most_{sys.maxsize - 1}"),
        "q2-past-grid": (HEAD.replace("q2: 1", f"q2: {sys.maxsize}") + "C:\n1 1\n",
                         f"q1_and_q2_must_be_at_most_{sys.maxsize - 1}"),
        "q1-largest-grid": (HEAD.replace("q1: 0", f"q1: {sys.maxsize - 1}") + "C:\n1 1\n",
                            f"coefficient_matrix_must_be_{sys.maxsize}_x_2"),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_parse_error_record_pinned(self, poly_file, tmp_path, capsys, name):
        text, detail = self.MALFORMED[name]
        cert = tmp_path / "cert.txt"
        cert.write_text(text)
        assert main(["verify", poly_file(SPHERE), str(cert)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"status=parse-error detail={detail}\n"


class TestEncloseMin:
    def test_sphere_at_two(self, poly_file, capsys):
        assert main(["enclose-min", poly_file(SPHERE), "--q1", "2", "--q2", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1 3/2 2 2"

    def test_constant(self, poly_file, capsys):
        assert main(["enclose-min", poly_file("variables: 2\ncoeffs:\n1\n"),
                     "--q1", "4", "--q2", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1 1 4 4"

    def test_target_width_doubles_to_256(self, poly_file, capsys):
        code = main(["enclose-min", poly_file(WORKED), "--target-width", "1/100"])
        assert code == 0
        tokens = capsys.readouterr().out.split()
        assert tokens[2] == "256" and tokens[3] == "256"
        lo, hi = Fraction(tokens[0]), Fraction(tokens[1])
        assert hi - lo == 2 * Fraction(255, 256 * 256)
        assert hi - lo <= Fraction(1, 100)

    def test_cap_exit_3(self, poly_file, capsys):
        code = main(["enclose-min", poly_file(WORKED),
                     "--target-width", "1/100000", "--max-iter", "2"])
        assert code == 3
        captured = capsys.readouterr()
        lo, hi, _, _ = captured.out.split()
        assert captured.err == f"status=inconclusive lo={lo} hi={hi}\n"

    def test_degree_below_floor(self, poly_file):
        assert main(["enclose-min", poly_file(WORKED), "--q1", "1", "--q2", "2"]) == 1

    def test_univariate_rejected(self, poly_file):
        assert main(["enclose-min", poly_file(UNI), "--q1", "2", "--q2", "2"]) == 1

    def test_negative_max_iter_rejected(self, poly_file, capsys):
        argv = ["enclose-min", poly_file(WORKED), "--target-width", "1/100"]
        assert main(argv + ["--max-iter", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("status=usage-error detail=")
        assert main(argv + ["--max-iter", "0"]) == 3
        assert capsys.readouterr().out.split()[2:] == ["2", "2"]


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{bad}", "--at", "0,0"],
            ["certify", "{bad}", "{out}", "--method", "raise"],
            ["enclose-min", "{bad}", "--q1", "2", "--q2", "2"],
            ["verify", "{bad}", "{sphere}"],
            ["verify", "{sphere}", "{bad}"],
        ],
    )
    def test_non_utf8_file_is_parse_error(self, poly_file, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        paths = {"bad": bad, "out": tmp_path / "cert.txt", "sphere": poly_file(SPHERE)}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("status=parse-error detail=")

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "{big}", "{out}", "--method", "raise"],
            ["eval", "{big}", "--at", "1,1"],
            ["verify", "{big}", "{cert}"],
            ["verify", "{sphere}", "{bigcert}"],
        ],
        ids=["certify", "eval", "verify-poly", "verify-cert"],
    )
    def test_overlong_integer_is_parse_error(self, poly_file, tmp_path, capsys, argv):
        digits = "7" * 5000
        big = poly_file(f"variables: 2\ncoeffs:\n{digits} 1\n1 0\n", "big.txt")
        cert = tmp_path / "cert.txt"
        assert main(["certify", poly_file(SPHERE), str(cert), "--method", "raise"]) == 0
        bigcert = tmp_path / "big.cert"
        bigcert.write_text(cert.read_text().replace("\nC:\n1 ", f"\nC:\n{digits} ", 1))
        assert digits in bigcert.read_text()
        paths = {
            "big": big, "out": tmp_path / "out.txt", "cert": cert,
            "sphere": poly_file(SPHERE), "bigcert": bigcert,
        }
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("status=parse-error detail=")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out.txt").exists()

    # 9...9 (1 + x1 + x2) with 4300 nines: the input is within the interpreter's
    # 4300-digit limit for str() and int(), values computed from it are not.
    NINES = "9" * 4300
    HUGE = f"variables: 2\ncoeffs:\n{NINES} {NINES}\n{NINES} 0\n"

    def test_eval_prints_value_over_digit_limit(self, poly_file, capsys):
        assert main(["eval", poly_file(self.HUGE), "--at", "1,1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "2" + "9" * 4299 + "7\n"  # 3 * 9...9, 4301 digits
        assert captured.err == ""

    def test_eval_prints_fraction_over_digit_limit(self, poly_file, capsys):
        assert main(["eval", poly_file(self.HUGE), "--at", "1/2,0"]) == 0
        assert capsys.readouterr().out == "2" + "9" * 4299 + "7/2\n"

    # 2 * 10^4299 (1 + x1), within the limit, certifies by raise at (2, 2): row
    # 0 is N (1, 2, 1), whose entries fit, and row 1 is N (3, 6, 3), where
    # 6N has 4301 digits, so the refusal comes partway through the rows.
    PARTWAY = f"variables: 2\ncoeffs:\n2{'0' * 4299}\n2{'0' * 4299}\n"

    @pytest.mark.parametrize(
        "method, text",
        [("raise", HUGE), ("nested", HUGE), ("raise", PARTWAY)],
        ids=["raise", "nested", "raise-partway"],
    )
    def test_certificate_over_digit_limit_is_too_large(
        self, poly_file, tmp_path, capsys, method, text
    ):
        out = tmp_path / "cert.txt"
        poly = poly_file(text)
        assert main(["certify", poly, str(out), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("status=too-large detail=")
        assert captured.err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["poly.txt"]
        # An existing target is left as it was, and no temporary file stays.
        out.write_text("previous certificate\n")
        assert main(["certify", poly, str(out), "--method", method]) == 1
        assert capsys.readouterr().err.startswith("status=too-large detail=")
        assert out.read_text() == "previous certificate\n"
        assert sorted(os.listdir(tmp_path)) == ["cert.txt", "poly.txt"]

    def test_partway_refusal_has_written_whole_rows_only(self, poly_file, tmp_path):
        # The same refusal through a pipe, which is written in place: the
        # reader gets the header and row 0, a document that verify refuses
        # to parse, since its C: block is short.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["certify", poly_file(self.PARTWAY), str(fifo), "--method", "raise"]) == 1
        reader.join(timeout=10)
        assert not reader.is_alive()
        n = 2 * 10**4299
        assert received == [
            "method: raise\nq1: 2\nq2: 2\nconvention: plain\n"
            f"tool_version: {berncert.__version__}\nC:\n{n} {2 * n} {n}\n"
        ]
        with pytest.raises(ParseError, match="coefficient matrix must be 3 x 3"):
            parse_certificate_document(received[0])

    @pytest.mark.parametrize(
        "text",
        ["variables: 2\ncoeffs:\n\u0663/\u0664 1\n", "variables: \u0662\ncoeffs:\n1\n"],
        ids=["entry", "header"],
    )
    def test_non_ascii_digits_are_parse_error(self, poly_file, tmp_path, capsys, text):
        out = tmp_path / "cert.txt"
        assert main(["certify", poly_file(text), str(out), "--method", "raise"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("status=parse-error detail=")
        assert not out.exists()

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def _document(p: BPoly) -> str:
    return serialize_polynomial_document(PolynomialDocument(2, p.coeffs))


def _exact(text: str) -> Fraction:
    """The rational a printed ``num/den`` names, read through ``decimal``,
    which takes digits past the interpreter's limit for int()."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def _run(argv) -> tuple[int, str, str]:
    """main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Denominators of about 2200 digits, pairwise coprime: each is within the
# interpreter's 4300-digit limit for str() and int(), a product of two is past it.
TWO, THREE, FIVE, SEVEN = 2**7300, 3**4700, 5**3140, 7**2600
NINES = 10**4300 - 1  # 4300 nines
# Refuted with a value past the limit: at a corner, (1, 0), and at a grid
# point, (1/2, 1), where p = 1/8 + 2^-7300 - x2/3^4700 - x1 + x1^2.
PAST_LIMIT = {
    "corner": (BPoly([[Fraction(1, TWO)], [Fraction(-(THREE + 1), THREE)]]), (1, 0)),
    "grid": (
        BPoly([[Fraction(TWO + 8, 8 * TWO), Fraction(-1, THREE)], [-1, 0], [1, 0]]),
        (Fraction(1, 2), 1),
    ),
}


class TestDigitLimit:
    """Inputs within the digit limit whose diagnostics show values past it:
    each ends in one record, the value printed in full."""

    @pytest.mark.parametrize("method", ["raise", "nested"])
    @pytest.mark.parametrize("name", sorted(PAST_LIMIT))
    def test_refutation_prints_value_past_limit(self, poly_file, tmp_path, name, method):
        p, witness = PAST_LIMIT[name]
        out = tmp_path / "cert.txt"
        code, stdout, err = _run(["certify", poly_file(_document(p)), str(out), "--method", method])
        assert (code, stdout, err.count("\n")) == (2, "", 1)
        status, point, value = err.split()
        assert status == "status=not-positive"
        assert point == "witness=" + ",".join(map(str, witness))
        assert value.startswith("value=") and len(value) > len("value=") + 4300
        assert _exact(value[len("value="):]) == p.eval(*witness) < 0
        assert not out.exists()

    @pytest.mark.parametrize("method", ["raise", "nested"])
    @pytest.mark.parametrize("corner", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_corner_refutation_record(self, poly_file, tmp_path, corner, method):
        # p is -1 at one corner of the box and 1 at the others, plus 1/2^7300
        # and -x1^i x2^j/3^4700, x1^i x2^j the corner's own monomial ((1, 1)
        # at (0, 0)): p's common denominator is past the limit, and so is the
        # refuted value's everywhere but at (0, 0).
        x1, x2 = corner
        values = [[1, 1], [1, 1]]
        values[x1][x2] = -1
        (v00, v01), (v10, v11) = values
        coeffs = [[v00 + Fraction(1, TWO), v01 - v00], [v10 - v00, v11 - v10 - v01 + v00]]
        i, j = corner if corner != (0, 0) else (1, 1)
        coeffs[i][j] -= Fraction(1, THREE)
        p = BPoly(coeffs)
        out = tmp_path / "cert.txt"
        code, stdout, err = _run(["certify", poly_file(_document(p)), str(out), "--method", method])
        assert (code, stdout) == (2, "")
        assert err == f"status=not-positive witness={x1},{x2} value={rat_text(p.eval(x1, x2))}\n"
        assert [p.eval(a, b) < 0 for a in (0, 1) for b in (0, 1)].count(True) == 1
        assert not out.exists()

    def test_verify_prints_mismatch_past_limit(self, poly_file, tmp_path):
        # p = N, and C's row N 1 ... 1 at (0, 10): its x2 term is 1 - 10 N.
        cert = tmp_path / "nines.cert"
        cert.write_text(
            "method: raise\nq1: 0\nq2: 10\nconvention: plain\ntool_version: 0.1.0\nC:\n"
            + " ".join([str(NINES)] + ["1"] * 10) + "\n"
        )
        code, stdout, err = _run(["verify", poly_file(f"variables: 2\ncoeffs:\n{NINES}\n"), str(cert)])
        assert (code, stdout, err.count("\n")) == (2, "", 1)
        head = "status=invalid reason=expansion_mismatch_at_monomial_x1^0_x2^1:_expansion_gives_"
        assert err.startswith(head)
        value, tail = err[len(head):].split(",", 1)
        assert tail == "_polynomial_has_0\n"
        assert _exact(value) == 1 - 10 * NINES


@st.composite
def past_limit_polys(draw):
    """Bidegree at most (2, 2), each coefficient a small integer plus a small
    numerator over one of the coprime denominators."""
    coeff = st.builds(
        lambda n, d, k: Fraction(n, d) + k,
        st.integers(-10**6, 10**6), st.sampled_from([TWO, THREE, FIVE, SEVEN]), st.integers(-2, 2),
    )
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return BPoly([[draw(coeff) for _ in range(cols)] for _ in range(rows)])


# Nested is left out: its degrees on such inputs have no bound yet.
@settings(max_examples=40, deadline=None)
@given(past_limit_polys())
def test_values_past_limit_end_in_records(p):
    with tempfile.TemporaryDirectory() as tmp:
        poly, cert = Path(tmp, "p.txt"), Path(tmp, "c.txt")
        poly.write_text(_document(p))
        code, out, err = _run(["certify", str(poly), str(cert), "--method", "raise", "--max-iter", "2"])
        # A certificate that would hold a number past the limit is not
        # written: status=too-large, exit 1.
        assert code in (0, 2, 3) or err.startswith("status=too-large ")
        assert err.count("\n") == (code != 0)
        if code == 0:
            assert _run(["verify", str(poly), str(cert)]) == (0, "ok\n", "")
        code, out, err = _run(["enclose-min", str(poly), "--q1", "2", "--q2", "2"])
        assert (code, err) == (0, "")
        lo, hi, *degrees = out.split()
        assert degrees == ["2", "2"]
        assert _exact(lo) <= p.eval(0, 0) and _exact(lo) <= _exact(hi)
        code, out, err = _run(["eval", str(poly), "--at", "1/3,2/7"])
        assert (code, err) == (0, "")
        assert _exact(out.strip()) == p.eval(Fraction(1, 3), Fraction(2, 7))


# Every failure path of every command: argv (paths as {names}), exit code,
# the one stderr record, and stdout.  Paths: {worked} WORKED, {sphere}
# SPHERE, {uni} UNI, {negative} NEGATIVE, {bad} a document with a malformed
# entry, {missing} no file, {out} a certificate to write, {zero} a 1 x 1
# certificate C = (0).
CAPPED_NESTED = (  # certify --method nested gives up on a row at --max-iter 0
    "variables: 2\ncoeffs:\n1827/40 -7/2 9/4 3/2 8/3\n-2 -7/4 -3/2 7/3 -2\n"
    "1/2 0 -2 9 2\n-8/3 9/2 -5/2 1/2 -6\n"
)
# A degree past sys.maxsize - 1, whose q + 1 grid points no list can hold.
HUGE_Q = str(10**20)
PAST_GRID = f"_are_past_the_largest_grid_degree_{sys.maxsize - 1}"
RECORDS = {
    "certify-univariate": (
        ["certify", "{uni}", "{out}", "--method", "raise"], 1,
        "status=usage-error detail=certify_requires_a_bivariate_polynomial", ""),
    "verify-univariate": (
        ["verify", "{uni}", "{zero}"], 1,
        "status=usage-error detail=verify_requires_a_bivariate_polynomial", ""),
    "enclose-univariate": (
        ["enclose-min", "{uni}", "--q1", "2", "--q2", "2"], 1,
        "status=usage-error detail=enclose-min_requires_a_bivariate_polynomial", ""),
    "q-start-removed": (  # raise always walks from the floors
        ["certify", "{sphere}", "{out}", "--method", "raise", "--q-start", "4,4"], 1,
        "status=usage-error detail=unrecognized_arguments:_--q-start_4,4", ""),
    "target-width-zero": (
        ["enclose-min", "{worked}", "--target-width", "0"], 1,
        "status=usage-error detail=--target-width_must_be_positive", ""),
    "enclose-without-degrees": (
        ["enclose-min", "{worked}", "--q1", "2"], 1,
        "status=usage-error detail=provide_--q1_and_--q2,_or_--target-width", ""),
    "enclose-degrees-with-width": (
        ["enclose-min", "{worked}", "--q1", "4", "--q2", "4", "--target-width", "1/2"], 1,
        "status=usage-error detail=provide_--q1_and_--q2,_or_--target-width", ""),
    "enclose-q1-with-width": (
        ["enclose-min", "{worked}", "--q1", "4", "--target-width", "1/2"], 1,
        "status=usage-error detail=provide_--q1_and_--q2,_or_--target-width", ""),
    "enclose-max-iter-with-degrees": (
        ["enclose-min", "{worked}", "--q1", "4", "--q2", "4", "--max-iter", "0"], 1,
        "status=usage-error detail=--max-iter_applies_to_--target-width", ""),
    "eval-arity": (
        ["eval", "{worked}", "--at", "1/7"], 1,
        "status=usage-error detail=expected_2_coordinates,_got_1", ""),
    "eval-arity-univariate": (
        ["eval", "{uni}", "--at", "1,1"], 1,
        "status=usage-error detail=expected_1_coordinates,_got_2", ""),
    "enclose-q1-below-floor": (
        ["enclose-min", "{worked}", "--q1", "0", "--q2", "2"], 1,
        "status=usage-error detail=degrees_(0,_2)_are_below_the_floors_(2,_2)", ""),
    "enclose-q1-past-grid": (
        ["enclose-min", "{worked}", "--q1", HUGE_Q, "--q2", "2"], 1,
        f"status=usage-error detail=degrees_({HUGE_Q},_2){PAST_GRID}", ""),
    "enclose-q2-past-grid": (
        ["enclose-min", "{worked}", "--q1", "2", "--q2", HUGE_Q], 1,
        f"status=usage-error detail=degrees_(2,_{HUGE_Q}){PAST_GRID}", ""),
    "argparse-missing-method": (
        ["certify", "{sphere}", "{out}"], 1,
        "status=usage-error detail=the_following_arguments_are_required:_--method", ""),
    "argparse-negative-max-iter": (
        ["enclose-min", "{worked}", "--target-width", "1/100", "--max-iter", "-3"], 1,
        "status=usage-error detail=argument_--max-iter:_-3_is_negative", ""),
    "argparse-bad-int": (
        ["enclose-min", "{worked}", "--q1", "2", "--q2", "x"], 1,
        "status=usage-error detail=argument_--q2:_invalid_int_value:_'x'", ""),
    "certify-parse-error": (
        ["certify", "{bad}", "{out}", "--method", "raise"], 1,
        "status=parse-error detail=malformed_rational_'1/x'", ""),
    "eval-point-parse-error": (
        ["eval", "{worked}", "--at", "0.5,0"], 1,
        "status=parse-error detail=malformed_rational_'0.5'", ""),
    "target-width-parse-error": (
        ["enclose-min", "{worked}", "--target-width", "1/x"], 1,
        "status=parse-error detail=malformed_rational_'1/x'", ""),
    "certify-io-error": (
        ["certify", "{missing}", "{out}", "--method", "raise"], 1,
        "status=io-error detail=[Errno_2]_No_such_file_or_directory:_'{missing}'", ""),
    "certify-io-error-missing-dir": (
        ["certify", "{sphere}", "{nodir}", "--method", "raise"], 1,
        "status=io-error detail=[Errno_2]_No_such_file_or_directory:_'{nodir}'", ""),
    "verify-io-error": (
        ["verify", "{sphere}", "{missing}"], 1,
        "status=io-error detail=[Errno_2]_No_such_file_or_directory:_'{missing}'", ""),
    "too-large": (
        ["certify", "{huge}", "{out}", "--method", "raise"], 1,
        "status=too-large detail=a_certificate_number_has_over_4300_digits", ""),
    "not-positive": (
        ["certify", "{negative}", "{out}", "--method", "raise"], 2,
        "status=not-positive witness=0,0 value=-1", ""),
    "invalid": (
        ["verify", "{sphere}", "{zero}"], 2,
        "status=invalid reason=nonpositive_entry_C[0][0]_=_0;_expansion_mismatch_at_"
        "monomial_x1^0_x2^0:_expansion_gives_0,_polynomial_has_1", ""),
    "inconclusive-raise": (
        ["certify", "{touching}", "{out}", "--method", "raise", "--max-iter", "3"], 3,
        "status=inconclusive lo=-1/72 hi=103/2304", ""),
    "inconclusive-nested": (
        ["certify", "{capped}", "{out}", "--method", "nested", "--max-iter", "0"], 3,
        "status=inconclusive", ""),
    "inconclusive-nested-lower-bound": (  # stage 1's doubling walk reaches the cap
        ["certify", "{worked}", "{out}", "--method", "nested", "--max-iter", "0"], 3,
        "status=inconclusive lo=-3/8 hi=1/8", ""),
    "inconclusive-target-width": (
        ["enclose-min", "{worked}", "--target-width", "1/100000", "--max-iter", "2"], 3,
        "status=inconclusive lo=3/56 hi=61/224", "3/56 61/224 8 8\n"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_failure_record(poly_file, tmp_path, capsys, name):
    argv, code, record, out = RECORDS[name]
    zero = tmp_path / "zero.cert"
    zero.write_text("method: raise\nq1: 0\nq2: 0\nconvention: plain\ntool_version: 0.1.0\nC:\n0\n")
    paths = {
        "worked": poly_file(WORKED, "worked.txt"), "sphere": poly_file(SPHERE, "sphere.txt"),
        "uni": poly_file(UNI, "uni.txt"), "negative": poly_file(NEGATIVE, "negative.txt"),
        "bad": poly_file("variables: 2\ncoeffs:\n1 1/x\n", "bad.txt"),
        "touching": poly_file("variables: 2\ncoeffs:\n1/9\n-2/3\n1\n", "touching.txt"),
        "capped": poly_file(CAPPED_NESTED, "capped.txt"),
        "huge": poly_file(TestUsage.HUGE, "huge.txt"),
        "missing": tmp_path / "missing.txt", "out": tmp_path / "cert.txt", "zero": zero,
        "nodir": tmp_path / "missing-dir" / "cert.txt",
    }
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == record.format(**paths) + "\n"
    assert captured.out == out
    assert not paths["out"].exists()
    # One record whose fields split on single spaces into key=value tokens.
    tokens = captured.err[:-1].split(" ")
    assert all(key.isidentifier() and value for key, _, value in (t.partition("=") for t in tokens))
    assert tokens[0].startswith("status=")



# Command lines that main parses with only the named command's parser, and
# their exit codes: argparse refuses most; two parse, the last --max-iter
# winning.
PARSE_LINES = {
    "missing-positional": (["certify", "{worked}", "--method", "raise"], 1),
    "bad-method": (["certify", "{worked}", "{out}", "--method", "sos"], 1),
    "bad-int": (["enclose-min", "{worked}", "--q1", "two", "--q2", "2"], 1),
    "unknown-option": (["verify", "{worked}", "{out}", "--fast"], 1),
    "abbreviation": (["certify", "{worked}", "{out}", "--meth", "raise"], 0),
    "repeated-max-iter": (
        ["enclose-min", "{worked}", "--target-width", "1/10", "--max-iter", "1", "--max-iter", "8"],
        0,
    ),
    "eval-without-at": (["eval", "{worked}"], 1),
    "option-before-command": (["--max-iter", "3", "certify", "{worked}", "{out}"], 1),
    "unknown-command": (["frobnicate", "{worked}"], 1),
    "no-command": ([], 1),
}


@pytest.mark.parametrize("name", sorted(PARSE_LINES))
def test_one_command_parser_gives_the_whole_parsers_outcome(poly_file, tmp_path, capsys,
                                                          monkeypatch, name):
    # Byte for byte: exit code, output, record, and the file written.
    line, code = PARSE_LINES[name]
    paths = {"worked": poly_file(WORKED, "worked.txt"), "out": tmp_path / "cert.txt"}
    argv = [arg.format(**paths) for arg in line]
    outcomes = []
    for parse in (cli._parse, lambda line: cli.build_parser().parse_args(line)):
        monkeypatch.setattr(cli, "_parse", parse)
        outcomes.append((main(argv), capsys.readouterr(), paths["out"].exists()))
        paths["out"].unlink(missing_ok=True)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    assert outcomes[0][1].err.startswith("status=usage-error detail=") == (code == 1)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_command_help_is_the_whole_parsers(capsys, command):
    assert main([command, "-h"]) == 0
    own = capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "-h"])
    assert capsys.readouterr() == own
    assert own.out.startswith(f"usage: berncert {command} [-h]")


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    listed = capsys.readouterr().out
    assert "{certify,verify,enclose-min,eval}" in listed
    assert all(f"    {command} " in listed for command in cli._COMMANDS)


# Degrees forced below what the method's bounds give, on WORKED: nested keeps
# q2 at n2 = 2, raise stops at the floors (2, 2), where C[1][1] = -3/2.
TOO_LOW = {
    "nested": (
        "_q2_of_rows", lambda p, q1, rows, den, report, max_levels: (p.n2, report), 358
    ),
    "raise": (
        "_raise", lambda p, *_: (0, raising.min_enclosure(p, 2, 2), raising.gamma_bounds(p)), 1
    ),
}


@pytest.mark.parametrize("method", sorted(TOO_LOW))
def test_nonpositive_row_is_internal_error(poly_file, tmp_path, capsys, monkeypatch, method):
    name, choice, row = TOO_LOW[method]
    monkeypatch.setattr(nested if method == "nested" else raising, name, choice)
    poly = poly_file(WORKED)
    assert main(["certify", poly, str(tmp_path / "cert.txt"), "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"status=internal-error detail=row_{row}_produced_a_nonpositive_coefficient_at_1;"
        "_the_certified_bounds_did_not_give_a_sufficient_degree\n"
    )
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["poly.txt"]  # no certificate, no .tmp file


def test_module_entry_point(tmp_path, capsys):
    # `python -m berncert` gives what main gives: the exit code, the output
    # and at most one stderr record, never a traceback.
    poly = tmp_path / "p.txt"
    poly.write_text(SPHERE)
    missing = str(tmp_path / "missing.txt")
    # The child imports the same berncert as this process, installed or not.
    src = os.path.dirname(os.path.dirname(berncert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        (["--version"], 0, f"{berncert.__version__}\n", ""),
        (["eval", str(poly), "--at", "1/2,1/2"], 0, "3/2\n", ""),
        (["certify", missing, str(tmp_path / "c.txt"), "--method", "raise"], 1, "",
         "status=io-error "),
    ]
    for argv, code, out, record in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "berncert", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert main(argv) == proc.returncode == code
        assert (proc.stdout, proc.stderr) == capsys.readouterr()
        assert proc.stdout == out and proc.stderr.startswith(record)
        assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["p.txt"]


def test_import_leaves_out_dataclasses():
    # Importing dataclasses (and inspect, which it pulls in) and generating
    # each record's methods was most of every command's start-up time.
    src = os.path.dirname(os.path.dirname(berncert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, berncert.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "set()\n"


def test_width_walk_stops_at_first_pair_past_grid(poly_file, tmp_path):
    # 1 + x1^2 at width 10^-4000: the bound would need degrees of about 4000
    # digits; the walk stops at the first doubled pair the grid cannot hold.
    path = poly_file("variables: 2\ncoeffs:\n1\n0\n1\n", "walk.txt")
    q = 2
    while q <= sys.maxsize - 1:
        q *= 2
    start = time.perf_counter()
    code, out, err = _run(
        ["enclose-min", path, "--target-width", f"1/{10**4000}", "--max-iter", "100000"]
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"status=usage-error detail=degrees_({q},_{q}){PAST_GRID}\n"


def test_nested_degree_past_grid_is_usage_error(poly_file, tmp_path, monkeypatch):
    # (x1 - 1/2)^30 + 50 gets q1 = 9882279206000499916984 from nested_q1,
    # after 39 s: stubbed here, the command ends in one record, as raise's
    # walk does past the grid.
    q1 = 9882279206000499916984
    report = nested.NestedDegreeReport(q1, 1, 1, None, None, None)
    monkeypatch.setattr(nested, "nested_q1", lambda p, **caps: (q1, report))
    out = tmp_path / "cert.txt"
    code, stdout, err = _run(["certify", poly_file(WORKED), str(out), "--method", "nested"])
    assert (code, stdout) == (1, "")
    assert err == (
        f"status=usage-error detail=degree_{q1}_is_past_the_largest_grid_degree_{sys.maxsize - 1}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["enclose-min", "{worked}", "--q1", "1000000000000000", "--q2", "2"]],
    ids=["enclose-min"],
)
def test_refused_allocation_is_out_of_memory(poly_file, tmp_path, monkeypatch, argv):
    # An allocation the machine refuses, here raised by the grid search.
    def refused(b, q1, q2):
        raise MemoryError

    monkeypatch.setattr(raising, "_grid_min", refused)
    paths = {"worked": poly_file(WORKED, "worked.txt"), "out": tmp_path / "cert.txt"}
    code, out, err = _run([arg.format(**paths) for arg in argv])
    assert (code, out, err) == (1, "", "status=out-of-memory\n")
    assert not paths["out"].exists()


def test_huge_grid_is_searched(poly_file):
    # 10**15 + 1 rows of three points, once an 8 PB list of the columns'
    # values along k: the search keeps only the rectangles it visits.
    start = time.perf_counter()
    code, out, err = _run(
        ["enclose-min", poly_file(WORKED), "--q1", "1000000000000000", "--q2", "2"]
    )
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert out == (  # the swapped grid's enclosure, since WORKED is symmetric
        "-1000000000000001/7999999999999992 "
        "125000000000000624999999999998000000000000001/"
        "999999999999999000000000000000000000000000000 1000000000000000 2\n"
    )


def test_swapped_huge_grid_is_searched(poly_file):
    # The swapped case of test_huge_grid_is_searched: three rows of 10**15 + 1
    # points.  The columns along k hold three entries, and the search halves
    # the long rows towards each row's minimum, so the run prints an enclosure.
    q2 = 10**15
    start = time.perf_counter()
    code, out, err = _run(["enclose-min", poly_file(WORKED), "--q1", "2", "--q2", str(q2)])
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert out == (
        "-1000000000000001/7999999999999992 "
        "125000000000000624999999999998000000000000001/"
        "999999999999999000000000000000000000000000000 2 1000000000000000\n"
    )
    # Row k of the normalized coefficients of 1/8 + x1^2 - 2 x1 x2 + x2^2 is
    # the quadratic 1/8 + C(k,2) - k l / q2 + C(l,2) / C(q2,2) in l, least
    # at an integer next to its vertex l = (k (q2-1) + 1) / 2 or at an end.
    def row(k, l):
        return Fraction(1, 8) + math.comb(k, 2) - Fraction(k * l, q2) + Fraction(
            math.comb(l, 2), math.comb(q2, 2)
        )

    candidates = [
        row(k, l)
        for k in range(3)
        for l in (0, q2, (k * (q2 - 1) + 1) // 2, (k * (q2 - 1) + 2) // 2)
        if 0 <= l <= q2
    ]
    assert Fraction(out.split()[0]) == min(candidates)
