"""The four workloads: how each draws its inputs, runs an item and is checked.

Input k of a run with seed n is drawn with library seed ``n * 1000 + k``.
A round runs one item per pool input; pools are fixed per seed, so every
round does the same work.  Library functions are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, List, Optional

import hkcurves.acm_curve as acm_curve
import hkcurves.cohomology as cohomology
import hkcurves.pencil as pencil
import hkcurves.rational_curve as rational_curve
import hkcurves.twistor_metric as twistor_metric
from hkcurves.exact_algebra.scalars import GaussianRational

import checks

SEED_STRIDE = 1000


def input_seed(seed: int, k: int) -> int:
    return seed * SEED_STRIDE + k


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    draw: Callable[[int, int], Any]  # (run seed, k) -> pool input k
    item: Callable[[Any], Any]  # pool input -> output
    check: Callable[[Any, Any], List[str]]  # (pool input, output) -> failures
    # (run seed, all outputs) -> failures of checks over the whole run; only
    # workloads that have one keep their outputs alive during the run
    finish: Optional[Callable[[int, List[Any]], List[str]]] = None


# -- pencil-reduce: dense exact linear algebra, no ideals -----------------------

PENCIL_R = 6


def _pencil_draw(seed, k):
    return pencil.random_injective_pencil(PENCIL_R, seed=input_seed(seed, k))


def _pencil_item(pair):
    A1, A2 = pair
    red = pencil.kronecker_reduce(A1, A2)
    identity = pencil.apply_gauge(A1, A2, red.P, red.Q) == pencil.canonical_pair(red.r)
    return red.P, red.Q, identity, pencil.pair_stabilizer_dimension(A1, A2)


def _pencil_check(pair, out):
    P, Q, identity, stabilizer = out
    return checks.check_pencil(pair[0], pair[1], P, Q, identity, stabilizer)


# -- curve-sections: sparse echelon, normal forms, modular rank -------------------

CURVE_R = 3
FIBERS_PER_CURVE = 5
TABLE_KMIN = -2


def _fiber_parameters(seed: int) -> List[GaussianRational]:
    rng = random.Random(seed)
    out: List[GaussianRational] = []
    while len(out) < FIBERS_PER_CURVE:
        t = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        if t not in out:
            out.append(t)
    return out


def _curve_draw(seed, k):
    s = input_seed(seed, k)
    return acm_curve.random_sigma_curve(CURVE_R, s), _fiber_parameters(s)


def _curve_item(pooled):
    curve, params = pooled
    # a fresh curve from the pooled matrix, so no item reuses graded pieces
    # or normal-form tables that an earlier item cached on the curve
    fresh = acm_curve.ACMCurve(curve.matrix)
    r = fresh.r
    table = cohomology.cohomology_table(fresh, TABLE_KMIN, r + 2)
    stable = cohomology.ellia_stability_check(fresh)
    report = cohomology.normal_sheaf_report(fresh)
    fibers = []
    for t in params:
        scheme = acm_curve.restrict_to_fiber(fresh, t)
        fibers.append(
            (scheme.length(), acm_curve.fiber_hilbert_function(scheme), acm_curve.stratum_check(scheme))
        )
    return {
        "r": r,
        "kmin": table.kmin,
        "table_rows": table.rows,
        "stable": stable,
        "sections": report.sections,
        "sections_minus_1": report.sections_minus_1,
        "fibers": fibers,
        "minors": fresh.minors,
    }


def _curve_check(pooled, out):
    return checks.check_curve(**out)


# -- metric-scan: numeric layer mixed with exact slicing ------------------------

METRIC_R = 2
CONTROL_CHARTS = 3


def _metric_draw(seed, k):
    return seed, k


def _metric_item(chart_id):
    seed, k = chart_id
    chart = twistor_metric.scan_chart(METRIC_R, seed, SEED_STRIDE, k)
    return twistor_metric.extract_metric(chart)


def _metric_check(chart_id, frame):
    return checks.check_frame(frame)


def _metric_finish(seed, frames):
    report = twistor_metric.frames_report(METRIC_R, frames, skip_sigma_gauge=False)
    errors = checks.check_constancy([f.gram for f in frames], report)
    raw = [
        twistor_metric.extract_metric(
            twistor_metric.scan_chart(METRIC_R, seed, SEED_STRIDE, k, skip_sigma_gauge=True)
        )
        for k in range(CONTROL_CHARTS)
    ]
    control = twistor_metric.frames_report(METRIC_R, raw, skip_sigma_gauge=True)
    return errors + checks.check_control(control)


# -- rational-split: rational_curve and tall Bareiss ranks ----------------------

MAP_DEGREE = 5


def _map_draw(seed, k):
    return rational_curve.random_rational_map(MAP_DEGREE, input_seed(seed, k))


def _map_item(curve_map):
    split = rational_curve.normal_splitting_type(curve_map)
    return split.a, split.b, rational_curve.riemann_roch_consistent(curve_map, split)


def _map_check(curve_map, out):
    a, b, rr = out
    return checks.check_rational(curve_map.forms, a, b, rr)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pencil-reduce", 8, _pencil_draw, _pencil_item, _pencil_check),
        Workload("curve-sections", 6, _curve_draw, _curve_item, _curve_check),
        Workload("metric-scan", 72, _metric_draw, _metric_item, _metric_check, _metric_finish),
        Workload("rational-split", 16, _map_draw, _map_item, _map_check),
    )
}
