"""Smoke test of tools/call_counts.py on one known call."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_one_call_reads_a_count_of_one():
    code = "from hkcurves.pencil import canonical_pair; canonical_pair(2)"
    run = subprocess.run(
        [sys.executable, str(REPO / "tools" / "call_counts.py"), "--", sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), capture_output=True, text=True, check=True, timeout=120,
    )
    counts = {name: (int(calls), int(inside)) for calls, inside, name in map(str.split, run.stdout.splitlines())}
    assert counts["hkcurves.pencil.canonical_pair"] == (1, 0)
    # the call builds S and T from inside the library
    assert counts["hkcurves.exact_algebra.linalg.ExactMatrix.from_integer_form"] == (2, 2)
