"""Each workload's checks pass on a real output and fail on a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hkcurves import acm_curve, pencil, rational_curve, twistor_metric  # noqa: E402
from hkcurves.exact_algebra.linalg import ExactMatrix  # noqa: E402

W = workloads.WORKLOADS


def test_pencil_check_rejects_perturbed_P():
    pair = pencil.random_injective_pencil(3, seed=0)
    P, Q, identity, stabilizer = out = W["pencil-reduce"].item(pair)
    assert W["pencil-reduce"].check(pair, out) == []
    rows = [[P[i, j] for j in range(P.shape[1])] for i in range(P.shape[0])]
    rows[0][0] = rows[0][0] + 1
    bad = (ExactMatrix(rows), Q, identity, stabilizer)
    assert W["pencil-reduce"].check(pair, bad)


def test_curve_check_rejects_wrong_section_count():
    pooled = (acm_curve.random_sigma_curve(2, 0), workloads._fiber_parameters(0))
    out = W["curve-sections"].item(pooled)
    assert W["curve-sections"].check(pooled, out) == []
    assert W["curve-sections"].check(pooled, {**out, "sections": out["sections"] + 1})


def test_metric_check_rejects_perturbed_gram():
    frames = [W["metric-scan"].item((0, k)) for k in range(2)]
    assert all(W["metric-scan"].check((0, k), f) == [] for k, f in enumerate(frames))
    honest = twistor_metric.frames_report(workloads.METRIC_R, frames, skip_sigma_gauge=False)
    assert checks.check_constancy([f.gram for f in frames], honest) == []
    # a report that passes constancy is exactly what the raw-gauge control must not give
    assert checks.check_control(honest)
    bent = [frames[0], dataclasses.replace(frames[1], gram=frames[1].gram + 1e-3)]
    report = twistor_metric.frames_report(workloads.METRIC_R, bent, skip_sigma_gauge=False)
    assert checks.check_constancy([f.gram for f in bent], report)


def test_rational_check_rejects_swapped_splitting():
    conic = rational_curve.random_rational_map(2, 0)
    a, b, rr = out = W["rational-split"].item(conic)
    assert a < b
    assert W["rational-split"].check(conic, out) == []
    assert W["rational-split"].check(conic, (b, a, rr))
