"""sha256 digests of the CLI gate's outputs, one line per output file.

Runs the gate's command list through `hkcurves.cli.main` in fresh
interpreters, with the `src/` of the checkout given by `--repo` (default:
this one) on the path, inside one temporary working directory.  Documents
are passed by fixed relative paths, since `acm verify` echoes the path.
Each command prints the digest of its stdout with its exit code, then one
line per file it wrote:

    <sha256>  <command>  [stdout, exit <code>]
    <sha256>  <command>  [<relative path of a written file>]

Timing lines go to stderr and are not digested.  To compare two trees,
run it on both and diff:

    python tools/cli_digests.py --repo /path/to/parent > parent.txt
    python tools/cli_digests.py > change.txt
    diff parent.txt change.txt

The input documents that no command writes (curves whose minors share a
common factor, degenerate pencils, a certified curve through the base line
L0, rational maps) are built before any command runs, by this checkout's
library and the test helpers that build them for the tests
(`_common_factor_matrix`, `_degenerate_document`, `meets_base_line`), so
both trees read the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from test_base_line import meets_base_line  # noqa: E402
from test_cli import _degenerate_document  # noqa: E402
from test_resolution_exactness import FACTOR_IDS, FACTORS, _common_factor_matrix  # noqa: E402

from hkcurves.acm_curve import ACMCurve  # noqa: E402
from hkcurves.cli import curve_to_document  # noqa: E402

_MAPS = {
    "conic": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
    "base_point": [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "1"], ["0", "0", "0"]],
    "cusp": [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
    "fractions": [["1/2", "0", "0", "0"], ["0", "3/4", "0", "0"], ["0", "0", "1/3", "0"], ["0", "0", "0", "1"]],
    # (q t - 1)^2 and t (t - 1), q = 1000003, each times 1, t, 1 + t, 1 - t
    "double_base_point": [["1", "-2000006", "1000006000009", "0"], ["0", "1", "-2000006", "1000006000009"], ["1", "-2000005", "1000004000003", "1000006000009"], ["1", "-2000007", "1000008000015", "-1000006000009"]],
    "two_base_points": [["0", "-1", "1", "0"], ["0", "0", "-1", "1"], ["0", "-1", "0", "1"], ["0", "-1", "2", "-1"]],
}


def commands() -> list[list[str]]:
    """The gate's command list, in run order (documents before readers)."""
    cmds = [
        ["kronecker", "--r", "6", "--count", "10", "--seed", "0"],
        ["kronecker", "--r", "3", "--count", "2", "--seed", "0"],
        ["kronecker", "--r", "10", "--count", "2", "--seed", "0"],
        ["acm", "random", "--r", "3", "--count", "2", "--seed", "0", "--out", "docs"],
        ["acm", "verify", "docs/curve_r3_s0_000.json"],
        ["acm", "verify", "docs/curve_r3_s0_001.json"],
        ["cohomology", "table", "--r", "3"],
        ["cohomology", "table", "--r", "2", "--seed", "1"],
        ["cohomology", "table", "--curve", "docs/curve_r3_s0_000.json"],
    ]
    cmds += [["rational", "--d", d, "--count", "20", "--seed", "1"] for d in ("5", "4", "2", "1")]
    cmds += [["rational", "--map", f"inputs/map_{name}.json"] for name in _MAPS]
    cmds += [
        ["metric", "--r", "2", "--count", "10", "--seed", "0", "--out", "metric"],
        ["metric", "--r", "2", "--count", "10", "--seed", "0", "--skip-sigma-gauge", "--out", "metric_skip"],
        ["metric", "--r", "3", "--count", "3", "--seed", "1"],
        ["metric", "--r", "4", "--count", "2", "--seed", "0"],
        ["metric", "--r", "8", "--count", "1", "--seed", "0", "--out", "metric8"],
    ]
    for r in ("6", "7"):
        cmds.append(["acm", "random", "--r", r, "--count", "1", "--seed", "0", "--out", f"docs{r}"])
        cmds.append(["acm", "verify", f"docs{r}/curve_r{r}_s0_000.json"])
    failing = [f"inputs/common_{name}.json" for name in FACTOR_IDS] + [f"inputs/degenerate_r{r}.json" for r in (3, 4)]
    for path in failing:
        cmds += [["acm", "verify", path], ["cohomology", "table", "--curve", path]]
    cmds.append(["acm", "verify", "inputs/meets_l0.json"])
    return cmds


def write_inputs(root: Path) -> None:
    """The documents no command writes, under `root/inputs`."""
    docs = {
        f"common_{name}": curve_to_document(ACMCurve(_common_factor_matrix(r, ells, seed=r)))
        for name, (r, ells) in zip(FACTOR_IDS, FACTORS)
    }
    docs.update({f"degenerate_r{r}": _degenerate_document(r) for r in (3, 4)})
    docs["meets_l0"] = curve_to_document(meets_base_line(0))
    docs.update({f"map_{name}": {"forms": forms} for name, forms in _MAPS.items()})
    (root / "inputs").mkdir()
    for name, doc in docs.items():
        (root / "inputs" / f"{name}.json").write_text(json.dumps(doc))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(repo: Path, cmds: list[list[str]], root: Path):
    """Yield the digest lines of each command as it finishes."""
    env = dict(os.environ, PYTHONPATH=str(repo.resolve() / "src"))
    code = "import sys; from hkcurves.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in cmds:
        before = {p for p in root.rglob("*") if p.is_file()}
        done = subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env, capture_output=True)
        text = " ".join(argv)
        yield f"{_digest(done.stdout)}  {text}  [stdout, exit {done.returncode}]"
        for path in sorted(p for p in root.rglob("*") if p.is_file() and p not in before):
            yield f"{_digest(path.read_bytes())}  {text}  [{path.relative_to(root)}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=REPO, help="checkout whose src/ runs the commands")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for line in run(args.repo, commands(), Path(tmp)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
