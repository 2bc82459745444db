"""Smoke test of tools/cli_digests.py on fast commands of its list."""

import hashlib
import importlib.util
from pathlib import Path

from hkcurves.cli import main

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_digests", REPO / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


def test_digest_line_matches_the_command_stdout(tmp_path, capsys):
    argv = ["kronecker", "--r", "3", "--count", "2", "--seed", "0"]
    assert argv in cli_digests.commands()
    lines = list(cli_digests.run(REPO, [argv], tmp_path))
    assert main(argv) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert lines == [f"{want}  kronecker --r 3 --count 2 --seed 0  [stdout, exit 0]"]


def test_document_writers_get_one_line_per_file(tmp_path):
    argv = ["acm", "random", "--r", "3", "--count", "2", "--seed", "0", "--out", "docs"]
    assert argv in cli_digests.commands()
    tags = [line.split("  ")[-1] for line in cli_digests.run(REPO, [argv], tmp_path)]
    assert tags == ["[stdout, exit 0]", "[docs/curve_r3_s0_000.json]", "[docs/curve_r3_s0_001.json]"]


def test_readers_of_built_inputs_find_them(tmp_path):
    cli_digests.write_inputs(tmp_path)
    argv = ["rational", "--map", "inputs/map_conic.json"]
    assert argv in cli_digests.commands()
    (line,) = cli_digests.run(REPO, [argv], tmp_path)
    assert line.endswith("  rational --map inputs/map_conic.json  [stdout, exit 0]")
