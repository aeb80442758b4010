"""Benchmark of berncert's user path: certify, verify and enclose-min.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports berncert from ``src``.
One process, one thread, closed loop: each input starts only after the
previous one ended.  A pass runs every input of the workload once; passes
repeat until the next one would end after ``--seconds``.

``--trace 0`` drives ``berncert.cli.main`` in-process with real files in a
scratch directory under ``perfbench/work`` and reports the end-to-end metrics,
with times at reference speed (see REFERENCE_S).
``--trace 1`` runs each input through the CLI and then through the library's
public functions with a span around every call (see ``traced.py``); it
reports per-layer metrics, the CLI overhead (the spans of the steps the CLI
adds) and the tracing overhead (spans recorded times the cost of one span).

Every pass checks the program's outputs; a mismatch counts as a failed
operation and the run goes on.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it print every metric by name with its unit, and a results file
``perfbench/results/<workload>-seed<n>-trace<t>.json`` keeps the metrics,
the exact counts, the sha256 of every certificate document and of every
output, one digest per workload, the failures, the raw timeline of
operations and reference runs and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from inputs import (
    CORPUS,
    ENCLOSE,
    NEAR_ZERO,
    NEAR_ZERO_WIDTH,
    REFUTE,
    WORKLOADS,
    horner,
    make_inputs,
    poly_document,
    sample_points,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
SETUP_REPEATS = 15
OPS = ("certify_nested", "certify_raise", "verify", "enclose")
PERCENTILES = (99, 95, 90, 75)

# The machine's speed drifts by up to a quarter within seconds and between
# minutes (shared cores), which moves every timing alike.  A fixed piece of
# exact arithmetic, timed between operations, measures that speed, and
# end-to-end times are reported at the speed at which it takes REFERENCE_S,
# about its median on the 2-core machine this benchmark was written on: an
# operation of t seconds between reference runs of r1 and r2 seconds counts
# as t * REFERENCE_S / ((r1 + r2) / 2).  The raw times are kept in the
# results file.
REFERENCE_S = 0.004
# Operations that start within this many seconds of the last reference run
# share it, so bursts of tiny operations cost one reference run.
REFERENCE_EVERY_S = 0.1


# Set-up is mostly ``import berncert.cli`` in a fresh interpreter.  Its time
# moves with that process's own speed, which a reference run here does not
# see, so the child times its own reference just before and just after the
# import: compiling and running a fixed module of class and function
# definitions, the kind of work an import does.  The import counts as
# t * SETUP_REFERENCE_S / r, r the mean of the two, with SETUP_REFERENCE_S
# about the reference's median on the machine this benchmark was written on.
SETUP_REFERENCE_S = 0.020
SETUP_CHILD = """
import time
TEXT = "\\n".join(
    f"class C{i}:\\n    x = {i}\\n    def f(self, a, b={i}):\\n"
    f"        return [a * b + k for k in range({i % 7})]\\n"
    f"def g{i}(*args, **kw):\\n    return {{'k{i}': args, 'v': kw}}\\n"
    for i in range(150))
def reference():
    start = time.perf_counter()
    exec(compile(TEXT, "reference", "exec"), {})
    return time.perf_counter() - start
before = reference()
start = time.perf_counter()
import berncert.cli
took = time.perf_counter() - start
print(took, (before + reference()) / 2)
"""


def reference_s() -> float:
    """Seconds taken by a fixed piece of Fraction and binomial arithmetic, the
    kind of work berncert does; it never changes with the program.

    The cycle collector is paused while it runs, so that the time measures
    the machine's speed and not the size of the heap the program left.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for k in range(1, 501):
            x = Fraction(math.comb(k % 97 + 60, 60), k) * Fraction(k, k % 13 + 7) + Fraction(1, k)
            acc ^= x.numerator
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class CheckFailed(Exception):
    """An output of the program is wrong or an exit code is unexpected."""


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def certificate_facts(data: bytes) -> tuple[int, int, bool]:
    """(cells, largest coefficient in bits, all entries positive), read from
    the certificate document's own text."""
    head, found, rest = data.decode("utf-8").partition("\nC:\n")
    if not found:
        raise CheckFailed("certificate has no C: section")
    headers = dict(line.split(": ", 1) for line in head.splitlines())
    q1, q2 = int(headers["q1"]), int(headers["q2"])
    tokens = rest.split("\nreport:\n", 1)[0].split()
    if len(tokens) != (q1 + 1) * (q2 + 1):
        raise CheckFailed(f"certificate holds {len(tokens)} entries, not ({q1}+1)({q2}+1)")
    bits, positive = 0, True
    for tok in tokens:
        num, _, den = tok.partition("/")
        value = int(num)
        positive = positive and value > 0
        bits = max(bits, value.bit_length(), int(den or 1).bit_length())
    return (q1 + 1) * (q2 + 1), bits, positive


class CliPass:
    """One pass of the workload through ``berncert.cli.main``, with checks."""

    def __init__(self, main, work: Path, facts_cache: dict):
        self.main = main
        self.work = work
        self.facts_cache = facts_cache
        self.timings: list[dict[str, float]] = []  # per input: op -> seconds
        self.refs: list[float] = []  # reference runs, the last one after the pass
        self.ops: list[tuple[int, str, float, int, float]] = []  # (input, op, seconds, last ref, start)
        self.ref_at: list[float] = []  # perf_counter() at the end of each reference run
        self._ref_end = -math.inf
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}       # "<input>/<op>" -> sha256 of the output
        self.certificates: dict[str, str] = {}  # "<input>/<method>" -> sha256 of the document
        self.cert_bytes = 0
        self.cert_cells = 0
        self.max_bits = 0

    def _reference(self) -> None:
        self.refs.append(reference_s())
        self._ref_end = time.perf_counter()
        self.ref_at.append(self._ref_end)

    def _op(self, op: str, argv: list[str], expect: int):
        self.attempted += 1
        if time.perf_counter() - self._ref_end >= REFERENCE_EVERY_S:
            self._reference()
        start = time.perf_counter()
        code, out, err, elapsed = _cli(self.main, argv)
        self.ops.append((len(self.timings) - 1, op, elapsed, len(self.refs) - 1, start))
        timing = self.timings[-1]
        timing[op] = timing.get(op, 0.0) + elapsed
        if code != expect:
            raise CheckFailed(f"{argv[0]} exited {code}, expected {expect}: {err.strip()}")
        return out, err

    def _certify_and_verify(self, name: str, index: int, path: Path, method: str):
        cert = self.work / f"{index}.{method}.cert"
        self._op(f"certify_{method}", ["certify", str(path), str(cert), "--method", method], 0)
        out, _ = self._op("verify", ["verify", str(path), str(cert)], 0)
        if out.strip() != "ok":
            raise CheckFailed(f"verify printed {out.strip()!r}")
        data = cert.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.facts_cache:
            self.facts_cache[digest] = certificate_facts(data)
        cells, bits, positive = self.facts_cache[digest]
        if not positive:
            raise CheckFailed("certificate has an entry that is not positive")
        self.certificates[f"{name}/{method}"] = digest
        self.outputs[f"{name}/certify_{method}"] = digest
        self.cert_bytes += len(data)
        self.cert_cells += cells
        self.max_bits = max(self.max_bits, bits)

    def _enclose(self, name, rows, argv, points, width=None):
        out, _ = self._op("enclose", argv, 0)
        self.outputs[f"{name}/enclose"] = hashlib.sha256(out.encode()).hexdigest()
        lo, hi = (Fraction(tok) for tok in out.split()[:2])
        if lo > hi:
            raise CheckFailed(f"enclosure lo {lo} > hi {hi}")
        for x1, x2 in points:
            if lo > horner(rows, x1, x2):
                raise CheckFailed(f"enclosure lo {lo} exceeds p({x1}, {x2})")
        if width is not None and hi - lo > width:
            raise CheckFailed(f"enclosure width {hi - lo} exceeds {width}")

    def _refute(self, name, rows, path: Path, index: int):
        cert = self.work / f"{index}.refuted.cert"
        _, err = self._op("certify_raise", ["certify", str(path), str(cert), "--method", "raise"], 2)
        self.outputs[f"{name}/certify_raise"] = hashlib.sha256(err.encode()).hexdigest()
        fields = dict(part.split("=", 1) for part in err.split())
        if fields.get("status") != "not-positive" or "witness" not in fields:
            raise CheckFailed(f"refutation without a witness: {err.strip()}")
        x1, x2 = (Fraction(tok) for tok in fields["witness"].split(","))
        value = horner(rows, x1, x2)
        if value > 0 or value != Fraction(fields["value"]):
            raise CheckFailed(f"witness ({x1}, {x2}) gives {value}, reported {fields['value']}")

    def run_input(self, index: int, inp, path: Path, points) -> None:
        self.timings.append({})
        try:
            if inp.kind == CORPUS:
                self._certify_and_verify(inp.name, index, path, "nested")
                self._certify_and_verify(inp.name, index, path, "raise")
            elif inp.kind == NEAR_ZERO:
                self._certify_and_verify(inp.name, index, path, "raise")
                self._enclose(inp.name, inp.rows,
                              ["enclose-min", str(path), "--target-width", str(NEAR_ZERO_WIDTH)],
                              points, NEAR_ZERO_WIDTH)
            elif inp.kind == ENCLOSE:
                self._enclose(inp.name, inp.rows,
                              ["enclose-min", str(path), "--q1", str(inp.q), "--q2", str(inp.q)],
                              points)
            elif inp.kind == REFUTE:
                self._refute(inp.name, inp.rows, path, index)
        except Exception as exc:  # a wrong output must not end the run
            self.failures.append(f"{inp.name}: {type(exc).__name__}: {exc}")

    def run(self, inputs, paths, points) -> "CliPass":
        for index, (inp, path) in enumerate(zip(inputs, paths)):
            self.run_input(index, inp, path, points)
        self._reference()
        # Per input: op -> seconds at reference speed.
        self.scaled_timings = [{} for _ in self.timings]
        for i, op, seconds, ref, _ in self.ops:
            around = self.refs[ref:ref + 2]
            timing = self.scaled_timings[i]
            timing[op] = timing.get(op, 0.0) + seconds * REFERENCE_S * len(around) / sum(around)
        return self

    @property
    def op_s(self) -> dict[str, float]:
        return {op: sum(t.get(op, 0.0) for t in self.timings) for op in OPS}

    @property
    def total_s(self) -> float:
        return sum(sum(t.values()) for t in self.timings)

    def exact(self) -> dict:
        return {
            "cert_bytes": self.cert_bytes,
            "cert_cells": self.cert_cells,
            "max_coeff_bits": self.max_bits,
            "outputs_digest": digest_of(self.outputs),
        }


def digest_of(named: dict[str, str]) -> str:
    """One sha256 over name/digest pairs, independent of the input order."""
    lines = "".join(f"{key} {value}\n" for key, value in sorted(named.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "values": values}
    for p in PERCENTILES:
        if len(values) * (100 - p) >= 1000:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def set_up(workload: str, seed: int, work: Path):
    """Import berncert in a fresh interpreter, make the inputs and write their
    documents.  Returns the raw and the scaled time of the import and of the
    writing, the inputs and their paths."""
    # No timeout: with one, subprocess polls the child in sleeps of up to 50 ms.
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True, capture_output=True, text=True,
    ).stdout
    import_s, import_ref = (float(tok) for tok in out.split())
    before = reference_s()
    start = time.perf_counter()
    inputs = make_inputs(workload, seed)
    folder = work / "inputs"
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir()
    paths = []
    for index, inp in enumerate(inputs):
        path = folder / f"{index}.poly"
        path.write_text(poly_document(inp.rows), encoding="utf-8")
        paths.append(path)
    write_s = time.perf_counter() - start
    raw = import_s + write_s
    scaled = (import_s * SETUP_REFERENCE_S / import_ref
              + write_s * 2 * REFERENCE_S / (before + reference_s()))
    return raw, scaled, inputs, paths


def repeat_until(deadline: float, step):
    """Run ``step`` until the next run would end after ``deadline``; at least once."""
    results, took = [], []
    while True:
        start = time.perf_counter()
        results.append(step())
        took.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(took) > deadline:
            return results


def check_passes_agree(passes) -> list[str]:
    """Every pass runs the same inputs, so its exact counts must repeat."""
    first = passes[0].exact()
    return [
        f"pass {i} exact counts {p.exact()} differ from pass 0 {first}"
        for i, p in enumerate(passes[1:], 1)
        if p.exact() != first
    ]


def per_input_median(passes, ops, scaled: bool = True) -> float:
    """Sum over inputs of the median over passes of the input's time in
    ``ops``, at reference speed unless ``scaled`` is false.

    Taking the median input by input uses every pass, and a slow stretch of
    one pass moves only the inputs it hit.
    """
    def seconds(p, i):
        timing = p.scaled_timings[i] if scaled else p.timings[i]
        return sum(timing.get(op, 0.0) for op in ops)

    return sum(
        statistics.median(seconds(p, i) for p in passes)
        for i in range(len(passes[0].timings))
    )


def measure_end_to_end(main, inputs, paths, points, work, deadline):
    cache: dict = {}
    passes = repeat_until(deadline, lambda: CliPass(main, work, cache).run(inputs, paths, points))
    metrics = {
        "inputs_per_s": (len(inputs) / per_input_median(passes, OPS), "1/s"),
        "certify_s": (per_input_median(passes, ("certify_nested", "certify_raise")), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    extra = {
        "raw_inputs_per_s": len(inputs) / per_input_median(passes, OPS, scaled=False),
        "raw_certify_s": per_input_median(passes, ("certify_nested", "certify_raise"), scaled=False),
        "speed": statistics.median(REFERENCE_S / r for p in passes for r in p.refs),
    }
    extra.update({f"{op}_s": summary([p.op_s[op] for p in passes]) for op in OPS})
    extra["pass_s"] = summary([p.total_s for p in passes])
    extra["input_latency_s"] = summary([sum(t.values()) for p in passes for t in p.timings])
    extra["failed_frac"] = failed / attempted
    return passes, metrics, extra


def _layer_values(tracer, cli_pass, span_cost) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    by_name: dict[str, float] = {}
    for _, _, _, name, start, end, _ in tracer.spans:
        by_name[name] = by_name.get(name, 0.0) + (end - start) / 1e9
    counts = tracer.counts
    values = {
        f"{name}_s": by_name.get(name, 0.0)
        for name in (
            "raising.bern_coeffs", "raising.minimum_lower_bound", "raising.min_enclosure",
            "nested.q1", "nested.q2", "nested.coefficient_polys",
            "univariate.to_bernstein_plain", "univariate.range_enclosure",
            "certificates.expand_plain_2d", "certificates.verify",
            "documents.serialize", "documents.parse",
        )
    }
    values["raising.other_s"] = (
        by_name.get("raising.certify_raise", 0.0) - by_name.get("raising.kernel_replay", 0.0)
    )
    calls = counts.get("raising.bern_coeffs_calls", 0)
    values["raising.useful_kernel_ratio"] = counts.get("raising.certificates", 0) / calls if calls else 0.0
    for name in (
        "raising.bern_coeffs_calls", "raising.doublings", "nested.q1", "nested.q2",
        "univariate.bisection_levels", "certificates.kernel_ops", "certificates.cells",
        "documents.bytes",
    ):
        values[name] = counts.get(name, 0)
    for op in OPS:
        values[f"cli.{op}_s"] = cli_pass.op_s[op]
    values["documents.max_coeff_bits"] = cli_pass.max_bits
    # The steps the CLI adds around the library, each timed by its own span.
    values["cli.overhead_s"] = sum(
        seconds for name, seconds in by_name.items()
        if name.startswith("cli.") or name == "documents.parse_polynomial"
    )
    # Computed, not measured: spans recorded times the cost of one span.
    values["trace.overhead_s"] = len(tracer.spans) * span_cost
    return values


def measure_layers(main, inputs, paths, points, work, deadline):
    from traced import Tracer, run_input, span_cost

    cache: dict = {}
    cost = span_cost()

    def cycle():
        # Each input runs through the CLI, then through the library's public
        # functions with a span around every call.
        cli_pass = CliPass(main, work, cache)
        tracer = Tracer()
        digests: dict[str, str] = {}
        failures: list[str] = []
        for index, (inp, path) in enumerate(zip(inputs, paths)):
            cli_pass.run_input(index, inp, path, points)
            tracer.input = inp.name
            try:
                for op, digest in run_input(tracer, inp.kind, path, work, inp.q).items():
                    digests[f"{inp.name}/{op}"] = digest
            except Exception as exc:  # a wrong output must not end the run
                failures.append(f"{inp.name} (library): {type(exc).__name__}: {exc}")
        # The split pipeline must give the very outputs the CLI gave.
        for name, digest in digests.items():
            if cli_pass.outputs.get(name) != digest:
                failures.append(f"{name}: library output differs from the CLI output")
        cli_pass.failures += failures
        cli_pass.attempted += len(inputs)
        return cli_pass, tracer, _layer_values(tracer, cli_pass, cost)

    cycles = repeat_until(deadline, cycle)
    passes = [c[0] for c in cycles]
    values = [c[2] for c in cycles]
    metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
    spans = [
        {"cycle": i, "id": s[0], "parent": s[1], "input": s[2], "name": s[3],
         "start_ns": s[4], "end_ns": s[5], "replay": s[6]}
        for i, (_, tracer, _) in enumerate(cycles)
        for s in tracer.spans
    ]
    extra = {"cycles": values, "span_cost_s": cost,
             "spans_per_cycle": [len(tracer.spans) for _, tracer, _ in cycles]}
    return passes, metrics, extra, spans


LAYER_UNITS = {
    "raising.bern_coeffs_calls": "count",
    "raising.useful_kernel_ratio": "ratio",
    "raising.doublings": "count",
    "nested.q1": "count",
    "nested.q2": "count",
    "univariate.bisection_levels": "count",
    "certificates.kernel_ops": "count",
    "certificates.cells": "count",
    "documents.bytes": "B",
    "documents.max_coeff_bits": "bits",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "berncert" / "cli.py").is_file():
        print(f"berncert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from berncert.cli import main as cli_main

    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            raw, scaled, inputs, paths = set_up(args.workload, args.seed, work)
            setups.append((raw, scaled))
        points = sample_points(random.Random(f"points:{args.seed}"))
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            passes, values, extra, spans = measure_layers(
                cli_main, inputs, paths, points, work, deadline)
            metrics = {k: (v, LAYER_UNITS.get(k, "s")) for k, v in values.items()}
            exact = {k: values[k] for k in LAYER_UNITS}
            exact["outputs_digest"] = digest_of(passes[0].outputs)
        else:
            passes, metrics, extra = measure_end_to_end(
                cli_main, inputs, paths, points, work, deadline)
            metrics = {"setup_s": (statistics.median(s for _, s in setups), "s"), **metrics}
            extra["raw_setup_s"] = statistics.median(raw for raw, _ in setups)
            spans = []
            exact = passes[0].exact()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    failures += check_passes_agree(passes)
    attempted = sum(p.attempted for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "inputs": [inp.name for inp in inputs],
        "setup_s": {"raw": [raw for raw, _ in setups], "at_reference_speed": [s for _, s in setups]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "exact": exact,
        "certificates": passes[0].certificates,
        "workload_digest": digest_of(passes[0].outputs),
        "failures": failures,
        "spans": spans,
        "timeline": [{"refs": p.refs, "ref_at": p.ref_at, "ops": p.ops} for p in passes],
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} inputs={len(inputs)} results={out_path.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if not args.trace:
        for name, value in extra.items():
            if isinstance(value, dict):  # a summary; its values are in the results file
                value = {k: v for k, v in value.items() if k != "values"}
            unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else ""
            print(f"  {name:34s} {value} {unit}")
    for name, value in exact.items():
        print(f"  exact {name:28s} {value}")
    print(f"  workload_digest {record['workload_digest']}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
