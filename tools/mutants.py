"""Planted defects that the tests must catch, one at a time.

Each mutant is one text edit of one file, with the test that must fail
on it: a check removed or forced true, a comparison moved by one, a
constant's digit changed.  The tool copies the checkout (without `.git`
and caches) into a temporary directory and first runs every listed test
there unmutated, which must pass.  Then, mutant by mutant, it applies the
edit, runs only that test, and puts the file back.  A mutant whose test
passes survived.

    python tools/mutants.py

Exits 1 if a mutant survives, if a listed test fails unmutated, if a run
ends in anything but pass or fail (a missing test, a collection error), or
if an edit's old text does not occur exactly once in its file, so the list
cannot go stale unnoticed; a stale list is printed whole.  No module under
`src/` imports this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    old: str
    new: str
    test: str  # a pytest node id, relative to the checkout


_ECHELON = "src/hkcurves/exact_algebra/ideals.py"

MUTANTS = (
    # sparse_echelon's raise removed
    Mutant(_ECHELON, 'raise ArithmeticError(f"rank {len(pivots)} exceeds certified bound {target}")', "pass",
           "tests/test_echelon_oracle.py::test_target_stop_and_overshoot_match_reference"),
    # its two comparisons back at the target itself: stop at the target, not one pivot past it
    Mutant(_ECHELON, "if target is None or len(pivots) <= target:", "if target is None or len(pivots) < target:",
           "tests/test_exact_fallbacks.py::test_a_window_prefix_under_its_rank_raises_without_primes"),
    Mutant(_ECHELON, "if target is not None and len(pivots) > target:\n                    break",
           "if target is not None and len(pivots) >= target:\n                    break",
           "tests/test_exact_fallbacks.py::test_a_window_prefix_under_its_rank_raises_without_primes"),
    # the mod-p over-bound raise removed; the exact route behind it raises
    # too, so the test that tells them apart reads the mod-p message
    Mutant("src/hkcurves/exact_algebra/modp.py",
           'raise ArithmeticError(f"rank {rank} mod p exceeds certified bound {bound}")', "pass",
           "tests/test_linalg.py::test_sparse_rank_certificate_of_column_prefixes"),
    # the cofactor identity's zero test forced true
    Mutant("src/hkcurves/acm_curve/curve.py",
           "cofactor = not column_combinations(curve.table, curve.pairs[0], r).any()", "cofactor = True",
           "tests/test_acm_curve.py::test_cofactor_check_fails_on_a_perturbed_minor"),
    # one digit of the slice pass's first draw
    Mutant("src/hkcurves/acm_curve/fibers.py", "0.18905338179353307", "0.18905338179353308",
           "tests/test_slice_pass.py::test_slice_draws_are_a_fresh_default_rng_2_sequence"),
    # the Euler characteristic raise removed
    Mutant("src/hkcurves/cohomology.py", 'raise ArithmeticError(f"Euler characteristic mismatch at twist {k}")', "pass",
           "tests/test_cohomology_oracle.py::test_euler_check_raises_on_a_planted_count"),
    # rho without its correction at k <= -4: h^2 and h^3 move together, so
    # the Euler check cannot see it; the independent rank of phi^T does
    Mutant("src/hkcurves/cohomology.py", "rho = (r + 1) * monomial_count(4, r - k - 4) - monomial_count(4, -k - 4)",
           "rho = (r + 1) * monomial_count(4, r - k - 4)",
           "tests/test_cohomology_oracle.py::test_h2_and_h3_match_the_rank_of_phi_transposed"),
    # Ellia's verdict without its twist r - 2
    Mutant("src/hkcurves/cohomology.py", "\n        and ideal_cohomology(curve, r - 2) == zero", "",
           "tests/test_cohomology.py::test_ellia_stability_check_reads_each_twist"),
    # the deviation of frames_report read as 0
    Mutant("src/hkcurves/twistor_metric.py",
           "deviation = max(float(np.abs(g - mean).max()) for g in grams) / scale", "deviation = 0.0",
           "tests/test_twistor_metric.py::test_frames_report_matches_the_stacked_mean"),
    # the split-model check of normal_splitting_type removed
    Mutant("src/hkcurves/rational_curve.py", "if got != expected:", "if False:",
           "tests/test_rational_curve.py::test_wrong_conormal_count_breaks_the_split"),
    # stability_check true for every split
    Mutant("src/hkcurves/rational_curve.py", "return splitting.a == splitting.b == 2 * splitting.d - 1", "return True",
           "tests/test_acceptance.py::test_criterion_5_splitting_types"),
    # riemann_roch_consistent true for every count
    Mutant("src/hkcurves/rational_curve.py",
           "return counts == [(splitting.a + m + 1) + (splitting.b + m + 1) for m in range(3)]", "return True",
           "tests/test_rational_curve.py::test_riemann_roch_reads_false_on_one_wrong_count"),
    # sigma on forms without its conjugation
    Mutant("src/hkcurves/reality.py", "-sign * values[c][1]", "sign * values[c][1]",
           "tests/test_reality.py::test_sigma_row_is_the_reference_on_terms"),
    # every span read as sigma-invariant
    Mutant("src/hkcurves/reality.py",
           "return sparse_row_rank(sparse_rows(rows)) == sparse_row_rank(sparse_rows(list(rows) + images))",
           "return True",
           "tests/test_cli.py::test_acm_verify_fails_the_sigma_stage_of_a_certified_curve_that_is_not_invariant"),
)


def _pytest(root: Path, tests: list[str]) -> int:
    """pytest's exit code for the tests, run in root with root/src first on
    the path and no bytecode written, so an edit is never read from a stale
    cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = [m for m in MUTANTS if (REPO / m.path).read_text().count(m.old) != 1]
    if stale:
        for m in stale:
            print(f"STALE     {m.path}: old text {m.old!r} does not occur exactly once")
        for m in MUTANTS:
            print(f"{m.path}: {m.old!r} -> {m.new!r}  [{m.test}]")
        return 1
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=ignore)
        tests = sorted({m.test for m in MUTANTS})
        if _pytest(root, tests) != 0:
            print("UNMUTATED listed tests fail; no mutant can be judged")
            return 1
        bad = 0
        for m in MUTANTS:
            target = root / m.path
            text = target.read_text()
            target.write_text(text.replace(m.old, m.new))
            try:
                code = _pytest(root, [m.test])
            finally:
                target.write_text(text)
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
            bad += code != 1
            print(f"{verdict:9} {m.path}: {m.old.strip()!r} -> {m.new!r}  [{m.test}]")
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
