"""The standing mutant gate: every recorded mutant of ``src/`` must be killed.

Run it with the interpreter that runs the tests (stdlib only, besides the
tests' own pytest and hypothesis):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs the chosen mutants' killer tests there on the
unchanged source: they must pass.  Then, for each mutant, it replaces the
mutant's old text, which must occur exactly once in its file, with the new
text and runs that mutant's killer tests: the mutant is killed when they
fail.  The file is restored before the next mutant.  The script exits 1 when
a mutant survives, when an old text is not found once, or when the killer
tests do not run cleanly or do not finish within ``TIMEOUT`` seconds (a
mutant that makes a search crawl is a failure, never a kill).  pytest does
not collect this file, whose name does not start with ``test_``.

A change to a mutated line updates its entry here; a new kernel or search
adds its mutants, each with the tests that kill it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNIVARIATE = "tests/test_univariate.py"
RAISING = "tests/test_raising.py"
POLYS = "tests/test_polys.py"
TIMEOUT = 600  # seconds one pytest run may take before the gate counts it as a failure

# (name, file under src/berncert, old text, new text, killer tests)
MUTANTS = [
    (
        "differences-add",
        "univariate.py",
        "out[k] -= out[k - 1]",
        "out[k] += out[k - 1]",
        [f"{UNIVARIATE}::test_differences_invert_values"],
    ),
    (
        "inverse-no-zero-pad",
        "univariate.py",
        " + [0] * (q + 1 - len(v))",
        "",
        [f"{UNIVARIATE}::test_inverse_kernel_matches_signed_binomial_loop"],
    ),
    (
        "refute-x2-undifferenced",
        "raising.py",
        "b = [_differences(_scaled_values(row, q2)) for row in zip(*cols)]",
        "b = [_scaled_values(row, q2) for row in zip(*cols)]",
        [f"{RAISING}::TestMinimumScan::test_min_enclosure_matches_bern_coeffs"],
    ),
    (
        "walk-past-grid",
        "raising.py",
        "range(min(max_doublings, past) + 1)",
        "range(max_doublings + 1)",
        ["tests/test_cli.py::test_width_walk_stops_at_first_pair_past_grid"],
    ),
    (
        "grid-min-last-tie",
        "raising.py",
        "best = min(best, (m, k, l0 + v))",
        "best = (m, k, l0 + v)",
        [f"{RAISING}::TestRefutationWitness::test_tie_and_degree_zero_witnesses"],
    ),
    (
        "row-min-vertex-floor",
        "raising.py",
        "v = min(max(-(c1 // c2), 0), span)",
        "v = min(max(-c1 // c2, 0), span)",
        [
            f"{RAISING}::TestRowMin::test_matches_scan",
            f"{RAISING}::TestGridMinSearch::test_isolated_minimum_at_10_15",
        ],
    ),
    (
        "row-min-later-end-on-tie",
        "raising.py",
        "(span * (span - 1) // 2) < 0 else 0",
        "(span * (span - 1) // 2) <= 0 else 0",
        [
            f"{RAISING}::TestRowMin::test_matches_scan",
            f"{RAISING}::TestGridMinSearch::test_search_matches_scan",
        ],
    ),
    (
        "grid-min-prunes-ties",
        "raising.py",
        "return low > value * scale or",
        "return low >= value * scale or",
        [f"{RAISING}::TestGridMinSearch::test_search_matches_scan"],
    ),
    (
        "grid-min-tie-index-reversed",
        "raising.py",
        "(k0, l0) > (k, l)",
        "(k0, l0) < (k, l)",
        [f"{RAISING}::TestGridMinSearch::test_search_matches_scan"],
    ),
    (
        "leaf-rows-highest-bound-first",
        "raising.py",
        "sorted(zip(lows, range(k0, k1 + 1), rows))",
        "sorted(zip(lows, range(k0, k1 + 1), rows), reverse=True)",
        [f"{RAISING}::TestGridMinSearch::test_search_matches_scan"],
    ),
    (
        "grid-min-split-reuses-parent-corner",
        "raising.py",
        "corner(mid + 1, l0, l1)",
        "(shifted, bounded)",
        [f"{RAISING}::TestGridMinSearch::test_search_matches_scan"],
    ),
    (
        "gamma1-undoubled-denominator",
        "raising.py",
        "return Fraction(g1, 2 * den),",
        "return Fraction(g1, den),",
        [f"{RAISING}::TestGamma::test_matches_fraction_loop"],
    ),
    (
        "binomial-row-off-by-one",
        "polys.py",
        "b = b * (m - t) // (t + 1)",
        "b = b * (m - t + 1) // (t + 1)",
        [f"{UNIVARIATE}::test_forward_pass_matches_kernel_loop"],
    ),
    (
        "x1-binomials-unshared",
        "univariate.py",
        "streams = tee(binomials(q), len(vectors))",
        "streams = [binomials(q)] * len(vectors)",
        [f"{UNIVARIATE}::test_forward_pass_matches_kernel_loop"],
    ),
    (
        "plain-degree0-shortcut-widened",
        "univariate.py",
        "if n == 0:",
        "if n <= 1:",
        [f"{UNIVARIATE}::test_forward_pass_matches_kernel_loop"],
    ),
    (
        "plain-rows-no-degree-check",
        "certificates.py",
        "    if q1 < n1 or q2 < n2:\n        raise DegreeError(",
        "    if False:\n        raise DegreeError(",
        [f"{RAISING}::TestBernCoeffs::test_degree_error"],
    ),
    (
        "bpoly-trim-keeps-last-zero-row",
        "polys.py",
        "while len(rows) > 1 and",
        "while len(rows) > 2 and",
        [f"{POLYS}::TestBPoly::test_canonical_trim"],
    ),
    (
        "bpoly-no-empty-matrix",
        "polys.py",
        "for row in coeffs] or [[]]",
        "for row in coeffs]",
        [f"{POLYS}::TestBPoly::test_empty_first_row_is_padded"],
    ),
    (
        "enclosure-lo-of-live-segments",
        "univariate.py",
        "lo = min(min_value, *(s[0] for s in segments))",
        "lo = min(s[0] for s in segments)",
        [f"{UNIVARIATE}::TestRangeEnclosure::test_soundness_on_random_polynomials"],
    ),
    (
        "enclosure-exact-on-either-side",
        "univariate.py",
        "(lo >= min_value and hi <= max_value)",
        "(lo >= min_value or hi <= max_value)",
        ["tests/test_nested.py::TestNestedQ2PerRowOracle::test_random"],
    ),
    (
        "q2-goursat-degree-raised",
        "nested.py",
        "_goursat(p.coeffs, n2)",
        "_goursat(p.coeffs, n2 + 1)",
        ["tests/test_nested.py::TestNestedQ2PerRowOracle::test_random"],
    ),
    (
        "format-row-any-denominator-one",
        "documents.py",
        "max(dens, default=1) == 1",
        "min(dens, default=1) == 1",
        ["tests/test_documents.py::test_row_is_written_as_str_of_its_fractions"],
    ),
    (
        "reader-skips-last-row",
        "documents.py",
        "count <= self.q1 + 1",
        "count <= self.q1",
        [
            "tests/test_documents.py::TestCertificateDocument::test_round_trip_raise",
            "tests/test_cli.py::TestVerifyCommand::test_tampered_certificate",
        ],
    ),
    (
        "rat-text-no-decimal-fallback",
        "polys.py",
        "    except ValueError:\n        num, den",
        "    except TypeError:\n        num, den",
        [f"{POLYS}::TestRational::test_text_past_the_digit_limit"],
    ),
    (
        "certificate-zero-denominator",
        "certificates.py",
        "if min(map(min, self.denominators)) <= 0:",
        "if min(map(min, self.denominators)) < 0:",
        ["tests/test_verify.py::test_malformed_certificate_message"],
    ),
    (
        "certificate-eq-uncrossed",
        "certificates.py",
        "n * e == m * d",
        "n * d == m * e",
        ["tests/test_documents.py::TestCertificateDocument::test_round_trip_raise"],
    ),
    (
        "record-too-few-fields",
        "polys.py",
        "if len(values) != len(names):",
        "if len(values) > len(names):",
        [f"{POLYS}::TestRecord::test_fields_by_position_only"],
    ),
    (
        "nested-report-rows-swapped",
        "nested.py",
        "tuple(infs), tuple(maxbs)",
        "tuple(maxbs), tuple(infs)",
        ["tests/test_nested.py::TestNestedQ2::test_maxb_matches_padded_goursat"],
    ),
    (
        "nested-worst-row-smallest",
        "nested.py",
        "maxb * scale * worst_lo > worst_num * lo",
        "maxb * scale * worst_lo < worst_num * lo",
        ["tests/test_nested.py::TestNestedQ2Oracle::test_corpus"],
    ),
    (
        "within-num-den-swapped",
        "univariate.py",
        "num, den = width.numerator, width.denominator",
        "den, num = width.numerator, width.denominator",
        [f"{UNIVARIATE}::test_integer_stops_decide_as_fraction_forms"],
    ),
    (
        "walk-starts-late-in-x2",
        "raising.py",
        "q1, q2 = _degree_floor(p.n1), _degree_floor(p.n2)",
        "q1, q2 = _degree_floor(p.n1), 2 * _degree_floor(p.n2)",
        [f"{RAISING}::TestBoxSymmetries::test_swap_transposes"],
    ),
    (
        "decode-line-offset-not-advanced",
        "cli.py",
        "start += len(line)",
        "start += 0",
        ["tests/test_streams.py::test_bad_bytes_give_the_whole_file_record[block-start]"],
    ),
    (
        "decode-error-end-not-last",
        "cli.py",
        "start + exc.end - 1",
        "start + exc.end",
        ["tests/test_streams.py::test_bad_bytes_give_the_whole_file_record[across-8k]"],
    ),
    (
        "text-path-accepts-without-comparing",
        "documents.py",
        "return line == _format_row(nums, dens)",
        "return _format_row(nums, dens) is not None",
        [
            "tests/test_verify.py::test_perturbed_certificates_give_one_reason_on_both_paths",
            "tests/test_cli.py::TestVerifyCommand::test_tampered_certificate",
        ],
    ),
    (
        "corner-check-edge-sums-swapped",
        "raising.py",
        "sum(a[0]), sum(row[0] for row in a)",
        "sum(row[0] for row in a), sum(a[0])",
        ["tests/test_cli.py::TestDigitLimit::test_corner_refutation_record"],
    ),
    (
        "bernstein-weights-falling-sign",
        "raising.py",
        "d * a - i * c",
        "d * a + i * c",
        [f"{RAISING}::test_bernstein_weights_match_the_raising_loop"],
    ),
]


def _pytest(copy: Path, tests: list[str]) -> subprocess.CompletedProcess | None:
    """pytest on the given tests of the copy, with the copy's ``src`` first
    on the path of pytest and of any child it starts, and no bytecode
    written, so a mutated file is never read from a stale cache.  None when
    the run takes more than ``TIMEOUT`` seconds: it runs in its own session,
    so it is killed with every child it started."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _tail(result: subprocess.CompletedProcess) -> str:
    return "\n".join((result.stdout + result.stderr).strip().splitlines()[-15:])


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m[0] for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 1
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory(prefix="berncert-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        killers = sorted({test for m in chosen for test in m[4]})
        baseline = _pytest(copy, killers)
        if baseline is None:
            print(f"the killer tests did not finish in {TIMEOUT} s on the unchanged source")
            return 1
        if baseline.returncode != 0:
            print(f"the killer tests fail on the unchanged source:\n{_tail(baseline)}")
            return 1
        bad = 0
        for name, file, old, new, tests in chosen:
            path = copy / "src" / "berncert" / file
            original = path.read_text()
            count = original.count(old)
            if count != 1:
                print(f"{name}: old text occurs {count} times in {file}, not once")
                bad += 1
                continue
            path.write_text(original.replace(old, new))
            try:
                result = _pytest(copy, tests)
            finally:
                path.write_text(original)
            if result is None:
                print(f"{name}: killer tests did not finish in {TIMEOUT} s")
                bad += 1
            elif result.returncode == 1:
                print(f"{name}: killed")
            elif result.returncode == 0:
                print(f"{name}: SURVIVED {' '.join(tests)}")
                bad += 1
            else:
                print(f"{name}: killer tests did not run (pytest exit {result.returncode}):")
                print(_tail(result))
                bad += 1
        print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
