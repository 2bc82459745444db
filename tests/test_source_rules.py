"""Rules that hold for every module under src/."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements():
    # python -O strips assert statements, so no check may live in one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_optimized_run_matches():
    # seeded slices under python -O must behave exactly as without them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command in (
        ["kronecker", "--r", "3", "--count", "2", "--seed", "0"],
        ["metric", "--r", "2", "--count", "2", "--seed", "0"],
        ["rational", "--d", "4", "--count", "3", "--seed", "0"],
    ):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "hkcurves.cli", *command],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for flags in (["-O"], [])
        ]
        assert [run.returncode for run in runs] == [0, 0], command
        assert runs[0].stdout == runs[1].stdout, command
