"""Steadiness self-check of the benchmark.

    python3 perfbench/steady.py

For each workload of BENCHMARK.json, runs ``run.py --trace 0`` once for each
of SEEDS seeds, ``run_seconds`` each, and prints, for every end-to-end
metric, the median and the distance between the first and third quartiles
as a share of the median, against a third of the metric's bound (the target)
and the bound itself.  Then it runs the first seed again, untraced and
traced twice, and requires the exact counts and output digests of same-seed
runs to be identical.  Exits 1 if any run is incorrect, any spread reaches
its bound, or any exact count differs.  Writes
``perfbench/results/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One benchmark run; returns its results file with the printed verdict."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    record["verdict"] = verdict
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    seconds = SPEC["run_seconds"]

    problems: list[str] = []
    report: dict = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0, seconds) for seed in range(1, SEEDS + 1)]
        problems += [f"{workload} seed {r['seed']}: {f}" for r in runs for f in r["failures"]]
        print(f"{workload}: {len(runs)} seeds, passes per run "
              f"{[r['passes'] for r in runs]}")
        rows = {}
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            rows[name] = {"values": values, "median": median, "spread": share, "bound": bound}
            mark = "ok" if share < bound / 3 else ("WIDE" if share < bound else "OVER")
            print(f"  {name:16s} median={median:<12.6g} {metric['unit']:5s} spread={share:.4f} "
                  f"target<{bound / 3:.4f} bound={bound} {mark}")
            if share >= bound:
                problems.append(f"{workload} {name}: spread {share:.4f} reaches bound {bound}")

        first = runs[0]
        again = run(workload, first["seed"], 0, seconds)
        traced = [run(workload, first["seed"], 1, 1) for _ in range(2)]
        for label, a, b in (("untraced", first, again), ("traced", traced[0], traced[1])):
            for key in ("exact", "workload_digest", "certificates"):
                if a[key] != b[key]:
                    problems.append(f"{workload} {label} seed {first['seed']}: {key} differs "
                                    f"between two runs")
        print(f"  traced, seed {first['seed']}, one cycle:")
        for metric in SPEC["per_layer"]:
            value = traced[0]["metrics"][metric["name"]]["value"]
            print(f"    {metric['name']:34s} {value:<12.6g} {metric['unit']}")
        print(f"  exact counts repeat: untraced {first['exact']}")
        print(f"                       traced {traced[0]['exact']}")
        problems += [f"{workload} traced: {f}" for r in traced for f in r["failures"]]
        report[workload] = {"metrics": rows, "exact": first["exact"],
                            "traced_exact": traced[0]["exact"],
                            "workload_digest": first["workload_digest"],
                            "trace_overhead_s": traced[0]["metrics"]["trace.overhead_s"]["value"]}

    report["problems"] = problems
    (HERE / "results" / "steady.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("steady" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
