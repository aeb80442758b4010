"""Command line interface: subcommands, exit codes, diagnostics."""

import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import berncert
from berncert.cli import main
from berncert.documents import (
    parse_certificate_document,
    serialize_certificate_document,
)

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
        assert doc.method == "raise"
        assert doc.q1 == doc.q2 <= 16
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

    def test_q_start_with_nested_rejected(self, poly_file, tmp_path):
        out = str(tmp_path / "cert.txt")
        code = main(
            ["certify", poly_file(SPHERE), out, "--method", "nested", "--q-start", "4,4"]
        )
        assert code == 1

    def test_inconclusive_exit_3(self, poly_file, tmp_path, capsys):
        touching = "variables: 2\ncoeffs:\n1/9\n-2/3\n1\n"  # (x1 - 1/3)^2
        out = str(tmp_path / "cert.txt")
        code = main(
            ["certify", poly_file(touching), out, "--method", "raise", "--max-iter", "3"]
        )
        assert code == 3
        assert "inconclusive" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.txt"), "x", "--method", "raise"]) == 1

    @pytest.mark.parametrize("q_start", ["a,b", "4,x", "4", "4,4,4"])
    def test_malformed_q_start(self, poly_file, tmp_path, capsys, q_start):
        out = str(tmp_path / "cert.txt")
        code = main(
            ["certify", poly_file(SPHERE), out, "--method", "raise", "--q-start", q_start]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("status=usage-error detail=")

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
        rows = [list(r) for r in doc.c]
        rows[0][0] = Fraction(0)
        tampered = type(doc)(
            method=doc.method, q1=doc.q1, q2=doc.q2, convention=doc.convention,
            c=tuple(tuple(r) for r in rows), report=doc.report,
            tool_version=doc.tool_version,
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
        assert len(capsys.readouterr().out.split()) == 4

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

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def test_module_entry_point(tmp_path):
    poly = tmp_path / "p.txt"
    poly.write_text(SPHERE)
    # The child imports the same berncert as this process, installed or not.
    src = os.path.dirname(os.path.dirname(berncert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "berncert", "eval", str(poly), "--at", "1/2,1/2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3/2"
