"""The benchmark's traced mode on four inputs, against its CLI pass.

``perfbench/traced.py`` splits each input's user path at the module
boundaries and replays library policies to time single layers; a replay that
misses the library's result raises ``ReplayMismatch``.  Running it here on a
nested corpus certificate, two near-zero raises (one of degree 0 in x2) and
a sweep refutation keeps
``perfbench/run.py --trace 1`` working across library refactors, which the
import check in ``test_bench_imports.py`` alone does not.  One whole CLI pass
of each workload at seed 1 keeps the path that ``--trace 0`` measures free of
failed checks.
"""

import random
from pathlib import Path

import pytest

from berncert.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import run
    import traced

    return inputs, run, traced


def test_traced_inputs_replay_and_match_cli(bench, tmp_path):
    inputs, run, traced = bench
    chosen = [
        next(i for i in inputs.make_inputs("corpus", 1) if i.name == "x1^2-x1+1+x2"),
        next(i for i in inputs.make_inputs("near-zero", 1) if i.name == "(x1-x2)^2+1e-2"),
        # n2 = 0, certified at (32, 32): a raise degree policy that moves
        # off the bench's replay (_replay_kernel) fails here.
        next(i for i in inputs.make_inputs("near-zero", 1) if i.name == "(x1-33/64)^2+1e-2"),
        next(i for i in inputs.make_inputs("sweep", 1) if i.kind == inputs.REFUTE),
    ]
    cli_pass = run.CliPass(main, tmp_path, {})
    tracer = traced.Tracer()
    points = inputs.sample_points(random.Random(1))
    library = {}
    for index, inp in enumerate(chosen):
        path = tmp_path / f"{index}.poly"
        path.write_text(inputs.poly_document(inp.rows))
        cli_pass.run_input(index, inp, path, points)
        tracer.input = inp.name
        # Raises ReplayMismatch when a replay misses the library's result.
        for op, digest in traced.run_input(tracer, inp.kind, path, tmp_path, inp.q).items():
            library[f"{inp.name}/{op}"] = digest
    assert cli_pass.failures == []
    assert sorted(library) == [
        "(x1-33/64)^2+1e-2/certify_raise",
        "(x1-33/64)^2+1e-2/enclose",
        "(x1-x2)^2+1e-2/certify_raise",
        "(x1-x2)^2+1e-2/enclose",
        "x1^2-x1+1+x2/certify_nested",
        "x1^2-x1+1+x2/certify_raise",
    ]
    assert {name: cli_pass.outputs[name] for name in library} == library
    assert (tracer.counts["nested.q1"], tracer.counts["nested.q2"]) == (526, 20)


@pytest.mark.parametrize("workload", ["corpus", "near-zero", "sweep"])
def test_cli_pass_of_each_workload(bench, tmp_path, workload):
    # One pass of every input of the workload, checked as perfbench/run.py
    # checks it at --trace 0.
    inputs, run, _ = bench
    chosen = inputs.make_inputs(workload, 1)
    paths = []
    for index, inp in enumerate(chosen):
        paths.append(tmp_path / f"{index}.poly")
        paths[-1].write_text(inputs.poly_document(inp.rows), encoding="utf-8")
    points = inputs.sample_points(random.Random("points:1"))
    cli_pass = run.CliPass(main, tmp_path, {}).run(chosen, paths, points)
    assert cli_pass.attempted > 0
    assert cli_pass.failures == []
