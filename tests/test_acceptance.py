"""Acceptance gate: seven criteria, one recorded pass/fail line each.

Budgets are wall-clock seconds measured inside the test; tolerances are
pinned at the values the library promises.  Each criterion records its
line before asserting so a failure still reports.
"""

import time

from conftest import record_criterion, sigma_suites
from suites import (
    curve_gauge_suite,
    fiber_equivariance_suite,
    fiber_trace_suite,
    graded_functoriality_suite,
    pencil_gauge_suite,
)

from hkcurves.acm_curve import (
    expected_hilbert,
    fiber_hilbert_function,
    random_fiber_parameters,
    restrict_to_fiber,
    stratum_check,
)
from hkcurves.cohomology import (
    ellia_stability_check,
    ideal_cohomology,
    normal_sheaf_report,
)
from hkcurves.pencil import (
    apply_gauge,
    canonical_pair,
    kronecker_reduce,
    pair_stabilizer_dimension,
    random_injective_pencil,
)
from hkcurves.rational_curve import (
    RationalCurveMap,
    line_map,
    normal_splitting_type,
    random_rational_map,
    stability_check,
    twisted_cubic_map,
)
from hkcurves.twistor_metric import flatness_scan


def test_criterion_1_pencil_reduction():
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        r = 1 + i % 6
        A1, A2 = random_injective_pencil(r, seed=i)
        red = kronecker_reduce(A1, A2)
        identity = apply_gauge(A1, A2, red.P, red.Q) == canonical_pair(r)
        ok = ok and identity and pair_stabilizer_dimension(A1, A2) == 1
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 10.0
    record_criterion(
        1,
        passed,
        f"100 random injective pencils, r in 1..6: exact reduction to the "
        f"canonical pair, stabilizer dimension 1 ({elapsed:.2f}s, budget 10s)",
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_2_cohomology_vanishing_and_stability():
    t0 = time.perf_counter()
    pool = sigma_suites()
    ok = True
    for r in (2, 3):
        ok = ok and len(pool[r]) == 20
        for curve in pool[r]:
            ok = ok and ideal_cohomology(curve, r - 1) == (0, 0, 0, 0)
            ok = ok and ideal_cohomology(curve, r - 2) == (0, 0, 0, 0)
            ok = ok and ellia_stability_check(curve)
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 60.0
    record_criterion(
        2,
        passed,
        f"20 invariant certified curves each for r=2,3: ideal cohomology "
        f"vanishes at twists r-1 and r-2, stability check true "
        f"({elapsed:.2f}s, budget 60s)",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_3_normal_bundle_sections():
    pool = sigma_suites()
    ok = True
    for r in (2, 3):
        for curve in pool[r]:
            rep = normal_sheaf_report(curve)
            ok = ok and rep.ok
            ok = ok and rep.sections == 2 * r * (r + 1)
            ok = ok and rep.sections_minus_1 == r * (r + 1)
    record_criterion(
        3,
        ok,
        "all 40 curves: h0(N) = 2r(r+1) and h0(N(-1)) = r(r+1) exactly",
    )
    assert ok


def test_criterion_4_fiber_lengths_and_strata():
    pool = sigma_suites()
    ok = True
    for r in (2, 3):
        display = tuple(expected_hilbert(r, k) for k in range(r + 3))
        for idx, curve in enumerate(pool[r]):
            for t in random_fiber_parameters(5, seed=1000 * r + idx):
                scheme = restrict_to_fiber(curve, t)
                ok = ok and scheme.length() == r * (r + 1) // 2
                ok = ok and fiber_hilbert_function(scheme) == display
                ok = ok and stratum_check(scheme)
    record_criterion(
        4,
        ok,
        "5 random fibers per curve: length r(r+1)/2, Hilbert function "
        "matches the expected display, open stratum membership",
    )
    assert ok


def test_criterion_5_splitting_types():
    t0 = time.perf_counter()
    split = normal_splitting_type(line_map())
    ok = (split.a, split.b) == (1, 1)

    conics = [RationalCurveMap(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)))]
    conics += [random_rational_map(2, seed) for seed in range(10)]
    for conic in conics:
        split = normal_splitting_type(conic)
        ok = ok and (split.a, split.b) == (2, 4)
        ok = ok and not stability_check(split)

    split = normal_splitting_type(twisted_cubic_map())
    ok = ok and (split.a, split.b) == (5, 5) and stability_check(split)

    balanced_ok = True
    for d in (3, 4, 5):
        balanced = 0
        for i in range(20):
            split = normal_splitting_type(random_rational_map(d, seed=77 * d + i))
            ok = ok and split.a + split.b == 4 * d - 2
            if (split.a, split.b) == (2 * d - 1, 2 * d - 1):
                balanced += 1
        balanced_ok = balanced_ok and balanced >= 16
    ok = ok and balanced_ok
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 30.0
    record_criterion(
        5,
        passed,
        f"line (1,1); conics (2,4) unstable; twisted cubic (5,5) stable; "
        f"60 random maps d=3,4,5: degrees sum to 4d-2, balanced in >= 80% "
        f"({elapsed:.2f}s, budget 30s)",
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_6_metric_constancy():
    t0 = time.perf_counter()
    line = flatness_scan(1, num_points=10, seed=0)
    ok = line.passed and line.max_relative_deviation < 1e-8 and line.signature_constant
    ok = ok and line.max_quaternion_residual < 1e-10

    surface = flatness_scan(2, num_points=10, seed=0)
    ok = ok and surface.passed and surface.signature_constant
    ok = ok and surface.max_relative_deviation < 1e-6
    ok = ok and surface.max_fit_residual < 1e-8
    # quaternion residuals include g(IX, IY) = g(X, Y)
    ok = ok and surface.max_quaternion_residual < 1e-8

    control = flatness_scan(2, num_points=4, seed=0, skip_sigma_gauge=True)
    ok = ok and not control.passed
    ok = ok and (control.max_relative_deviation >= 1e-6 or not control.signature_constant)
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 120.0
    record_criterion(
        6,
        passed,
        f"10 charts r=1 constant to 1e-8 with residuals < 1e-10; 10 charts "
        f"r=2 constant to 1e-6 with fit and compatibility residuals < 1e-8; "
        f"raw-gauge control fails ({elapsed:.2f}s, budget 120s)",
    )
    assert ok
    assert elapsed < 120.0


def test_metric_constancy_at_r3():
    # criterion 6 one rank up: 6 flat charts of genus-3 sextics, one signature
    surface = flatness_scan(3, num_points=6, seed=0)
    assert surface.passed and surface.signature_constant
    assert surface.max_relative_deviation < 1e-6
    assert surface.max_fit_residual < 1e-8
    assert surface.max_quaternion_residual < 1e-8
    control = flatness_scan(3, 3, 0, skip_sigma_gauge=True)
    assert not control.passed
    assert control.max_relative_deviation >= 1e-6 or not control.signature_constant


def test_criterion_7_invariant_suites():
    pool = sigma_suites()
    counts = (
        pencil_gauge_suite(count=50),
        curve_gauge_suite(count=50),
        fiber_equivariance_suite(pool, count=50),
        graded_functoriality_suite(count=50),
        fiber_trace_suite(pool, count=50),
    )
    ok = counts == (50, 50, 50, 50, 50)
    record_criterion(
        7,
        ok,
        "gauge invariance of reduction and curve invariants, fiber "
        "equivariance, graded functoriality, slice trace identities: "
        "50 seeded instances each",
    )
    assert ok
