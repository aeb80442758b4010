"""The mutant gate's list, checked without running it: every mutant's old
text occurs once in its file, and every killer test it names exists.  The
gate itself, ``python tests/mutants.py``, runs pytest once per mutant."""

import ast

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_and_killers_exist(mutant):
    _, file, old, _, tests = mutant
    source = (mutants.ROOT / "src" / "berncert" / file).read_text()
    assert source.count(old) == 1
    for test in tests:
        path, *names = test.split("::")
        body = ast.parse((mutants.ROOT / path).read_text()).body
        for part in names:
            part = part.partition("[")[0]  # a parameter id names no definition
            defined = {
                node.name: node.body
                for node in body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            }
            assert part in defined, f"{test} names no {part}"
            body = defined[part]
