"""Chart normalization, quaternionic section operators, metric extraction."""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hkcurves import twistor_metric
from hkcurves.acm_curve import (
    ACMCurve,
    LinearMatrix,
    fiber_generators,
    fiber_points,
    random_fiber_parameters,
    random_real_curve,
)
from hkcurves.exact_algebra.ideals import normal_form_table
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.scalars import GaussianRational
from hkcurves.pencil import canonical_pair
from hkcurves.reality import reality_conjugate
from hkcurves.twistor_metric import (
    basis_arrays,
    complex_structures,
    extract_metric,
    fit_quadratic,
    flatness_scan,
    frames_report,
    normalize_to_flat_chart,
    point_derivative,
    scan_chart,
    sample_parameters,
    structure_arrays,
)

from suites import (
    AffineFiber,
    TangentSection,
    _operator_matrix,
    identity_matrix,
    mat_add,
    mat_scale,
    real_tangent_basis,
    reference_fiber_points,
    section_arrays,
    section_I,
    section_J,
    section_K,
    section_structure_at,
    to_complex,
)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def random_scrambled_curve(r, seed):
    return twistor_metric._drawn_and_scrambled(r, seed)[1]


def random_section(r, rng, span=4):
    def mat():
        return ExactMatrix(
            [
                [
                    GaussianRational(rng.randint(-span, span), rng.randint(-span, span))
                    for _ in range(r)
                ]
                for _ in range(r + 1)
            ]
        )

    return TangentSection(mat(), mat())


def test_normalize_to_flat_chart_properties():
    for r, seed in ((1, 0), (2, 4), (3, 9)):
        chart = normalize_to_flat_chart(random_scrambled_curve(r, seed))
        S, T = canonical_pair(r)
        assert chart.A1 == S
        assert chart.A2 == T
        assert chart.A4 == reality_conjugate(chart.A3)
        rebuilt = ACMCurve(chart)
        assert rebuilt.degree == r * (r + 1) // 2
        assert rebuilt.certificate().ok


def test_raw_chart_keeps_the_curve_gauge():
    # the control of a scan reads the scrambled matrix in its own gauge,
    # which is not the canonical one
    curve = random_scrambled_curve(2, 7)
    chart = scan_chart(2, 7, 1, 0, skip_sigma_gauge=True)
    assert isinstance(chart, ACMCurve)
    assert chart.coeffs == curve.coeffs
    assert chart.coeffs[:2] != canonical_pair(2)


def test_normalize_rejects_broken_conjugation_tie():
    base = normalize_to_flat_chart(random_scrambled_curve(1, 2))
    bump = ExactMatrix([[ONE], [ZERO]])
    spoiled = ACMCurve(
        LinearMatrix(1, base.A1, base.A2, base.A3, mat_add(base.A4, bump))
    )
    with pytest.raises(ValueError):
        normalize_to_flat_chart(spoiled)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_flat_scan_chart_keeps_the_drawn_certified_curve(r, monkeypatch):
    draw = twistor_metric._drawn_and_scrambled
    drawn = []

    def recorded(r, seed):
        out = draw(r, seed)
        drawn.append(out[0])
        return out

    monkeypatch.setattr(twistor_metric, "_drawn_and_scrambled", recorded)
    for seed in range(3):
        curve = scan_chart(r, seed, 1, 0)
        # the curve random_scrambled_curve(r, seed) scrambles, not a rebuilt one
        assert curve is drawn[-1]
        assert curve.coeffs == random_real_curve(r, seed=seed * 7919 + 11).coeffs
        assert curve.certificate().ok
        flat = normalize_to_flat_chart(random_scrambled_curve(r, seed))
        assert curve.coeffs == flat.coeffs
        # the raw control builds its curve from its own gauge
        raw = scan_chart(r, seed, 1, 0, skip_sigma_gauge=True)
        assert raw is not drawn[-1] and raw.coeffs == random_scrambled_curve(r, seed).coeffs


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_drawn_curve_reads_the_floats_of_the_normalized_chart(r):
    # the drawn curve's integer forms have other denominators than the
    # normalized chart's, but the rationals are equal and int / int is
    # correctly rounded, so the floats and the frames are the same bits
    for seed in range(3):
        curve = scan_chart(r, seed, 1, 0)
        flat = normalize_to_flat_chart(random_scrambled_curve(r, seed))
        for got, want in zip(curve.matrix.numeric(), flat.numeric()):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        gram = extract_metric(curve).gram
        assert gram.tobytes() == extract_metric(ACMCurve(flat)).gram.tobytes()


def test_scan_chart_rejects_a_flat_chart_that_moved_the_drawn_curve(monkeypatch):
    normalize = twistor_metric.normalize_to_flat_chart

    def moved(curve):
        chart = normalize(curve)
        A3 = mat_add(chart.A3, ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]]))
        return LinearMatrix(chart.r, chart.A1, chart.A2, A3, reality_conjugate(A3))

    assert scan_chart(2, 4, 1, 0).coeffs[2] == normalize(random_scrambled_curve(2, 4)).A3
    monkeypatch.setattr(twistor_metric, "normalize_to_flat_chart", moved)
    with pytest.raises(AssertionError, match="drawn curve"):
        scan_chart(2, 4, 1, 0)


def test_numeric_reads_the_integer_forms_as_complex_does():
    # a product is born in its integer form over D_L * D_R; entries past 2^53
    # must round as complex(GaussianRational) does, correctly
    rng = random.Random(31)
    big = GaussianRational(Fraction(2**60 + 1, 3), Fraction(-(2**70) - 7, 9))
    # rounding 2^54 + 3 to a float before dividing by 3 moves the quotient
    tie = GaussianRational(Fraction(2**54 + 3, 3), Fraction(-(2**54) - 3, 3))
    assert float(2**54 + 3) / 3 != (2**54 + 3) / 3
    for r in (1, 2, 3):
        chart = normalize_to_flat_chart(random_scrambled_curve(r, r))
        products = (
            mat_scale(chart.A3, big) @ ExactMatrix(
                [[GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7))) for _ in range(r)] for _ in range(r)]
            ),
            ExactMatrix([[tie] * r] * (r + 1)) @ identity_matrix(r),
        )
        for A3 in products:
            moved = LinearMatrix(r, chart.A1, chart.A2, A3, reality_conjugate(A3))
            for got, A in zip(moved.numeric(), (chart.A1, chart.A2, A3, reality_conjugate(A3))):
                want = np.array([[complex(z) for z in row] for row in A.data])
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_section_operators_square_to_minus_one():
    rng = random.Random(31)
    for r in (1, 2, 3):
        for _ in range(5):
            x = random_section(r, rng)
            minus_x = x.scale(GaussianRational(-1))
            assert section_I(section_I(x)) == minus_x
            assert section_J(section_J(x)) == minus_x
            assert section_K(section_K(x)) == minus_x


def test_section_operators_quaternion_relations():
    rng = random.Random(32)
    for r in (1, 2):
        for _ in range(5):
            x = random_section(r, rng)
            assert section_I(section_J(x)) == section_K(x)
            assert section_J(section_I(x)) == section_K(x).scale(GaussianRational(-1))
            assert section_K(section_I(x)) == section_J(x)
            assert section_I(section_K(x)) == section_J(x).scale(GaussianRational(-1))


def test_operator_matrices_are_a_quaternion_triple():
    for r in (1, 2):
        Iop, Jop, Kop = complex_structures(r)
        n = 2 * r * (r + 1)
        minus_id = mat_scale(identity_matrix(n), -1)
        assert Iop @ Iop == minus_id
        assert Jop @ Jop == minus_id
        assert Kop @ Kop == minus_id
        assert Iop @ Jop == Kop
        assert Jop @ Iop == mat_scale(Kop, -1)


def test_complex_structures_match_the_section_operators():
    for r in range(1, 6):
        assert complex_structures(r) == tuple(_operator_matrix(r, op) for op in (section_I, section_J, section_K))


def _no_negative_zero(a):
    return not (np.signbit(a) & (a == 0)).any()


def test_basis_arrays_are_the_tangent_basis_arrays():
    for r in range(1, 9):
        built, reference = basis_arrays(r), section_arrays(real_tangent_basis(r))
        for got, want in zip(built, reference):
            assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.complex128, (2 * r * (r + 1), r + 1, r))
            assert got.tobytes() == want.tobytes()
            assert all(_no_negative_zero(part) for part in (got.real, got.imag, want.real, want.imag))


def test_structure_arrays_are_a_signed_permutation_triple():
    for r in range(1, 13):
        Imat, Jmat, Kmat = structure_arrays(r)
        minus_id = -np.eye(2 * r * (r + 1))
        for M in (Imat, Jmat, Kmat):
            assert set(np.unique(M)) <= {-1.0, 0.0, 1.0} and _no_negative_zero(M)
            assert (np.abs(M).sum(axis=0) == 1).all() and (np.abs(M).sum(axis=1) == 1).all()
            assert np.array_equal(M @ M, minus_id)
        assert np.array_equal(Imat @ Jmat, Kmat)
        assert np.array_equal(Jmat @ Imat, -Kmat)


def test_structure_at_origin_is_I():
    rng = random.Random(33)
    for r in (1, 2):
        x = random_section(r, rng)
        assert section_structure_at(ZERO, x) == section_I(x)


def test_structure_at_squares_to_minus_one():
    rng = random.Random(34)
    for zeta in (ZERO, ONE, I, GaussianRational(1, -2), GaussianRational(Fraction(2, 3))):
        x = random_section(2, rng)
        twice = section_structure_at(zeta, section_structure_at(zeta, x))
        assert twice == x.scale(GaussianRational(-1))


def test_structure_eigensections():
    # dA3 = -zeta*dA4 spans the -i eigenspace, dA4 = conj(zeta)*dA3 the +i one
    rng = random.Random(35)
    for zeta in (ZERO, ONE, I, GaussianRational(1, -2)):
        w = random_section(2, rng).dA4
        x = TangentSection(mat_scale(w, -zeta), w)
        assert section_structure_at(zeta, x) == x.scale(GaussianRational(0, -1))
        y = TangentSection(w, mat_scale(w, zeta.conj()))
        assert section_structure_at(zeta, y) == y.scale(I)


def test_real_tangent_basis_drags_the_conjugate_slot():
    for r in (1, 2):
        basis = real_tangent_basis(r)
        assert len(basis) == 2 * r * (r + 1)
        for x in basis:
            assert x.dA4 == reality_conjugate(x.dA3)


def test_point_derivative_matches_central_difference():
    chart = normalize_to_flat_chart(random_scrambled_curve(2, 3))
    t = sample_parameters(1)[0]
    pts = fiber_points(ACMCurve(chart), [t])[0]
    basis = real_tangent_basis(2)
    eps = Fraction(1, 10**5)
    for sec in (basis[0], basis[3], basis[8]):
        u, v = complex(pts[0][0]), complex(pts[0][1])
        deltas, ok = point_derivative(chart.numeric(), [t], [(u, v)], section_arrays([sec]))
        assert ok.tolist() == [True]
        du, dv = deltas[0, 0]

        def nearest(sign):
            s = GaussianRational(sign * eps)
            moved = LinearMatrix(
                chart.r,
                chart.A1,
                chart.A2,
                mat_add(chart.A3, mat_scale(sec.dA3, s)),
                mat_add(chart.A4, mat_scale(sec.dA4, s)),
            )
            cand = fiber_points(ACMCurve(moved), [t])[0]
            return min(
                cand, key=lambda p: abs(complex(p[0]) - u) + abs(complex(p[1]) - v)
            )

        plus, minus = nearest(+1), nearest(-1)
        step = 2.0 * float(eps)
        fd_u = (complex(plus[0]) - complex(minus[0])) / step
        fd_v = (complex(plus[1]) - complex(minus[1])) / step
        assert abs(fd_u - du) < 1e-8 * max(1.0, abs(du))
        assert abs(fd_v - dv) < 1e-8 * max(1.0, abs(dv))


def test_point_derivative_consistency_guard():
    # a point moved off the curve by (+delta, -delta) is no point of the chart
    for r in (2, 3):
        chart = normalize_to_flat_chart(random_scrambled_curve(r, 3))
        t = sample_parameters(1)[0]
        pts = [(complex(u), complex(v)) for u, v in fiber_points(ACMCurve(chart), [t])[0]]
        moved = [(pts[0][0] + delta, pts[0][1] - delta) for delta in (1e-6, 1e-7)]
        _, ok = point_derivative(
            chart.numeric(), [t] * (len(pts) + 2), pts + moved, section_arrays([real_tangent_basis(r)[1]])
        )
        assert ok.tolist() == [True] * len(pts) + [False, False]


def test_point_derivative_rejects_a_point_of_corank_two():
    # A3 chosen so that M has rank r - 2 at p: no tangent system there
    rng = np.random.default_rng(0)
    t, p = sample_parameters(1)[0], (0.3 + 0.1j, -0.2j)
    for r in (2, 3):
        A1n, A2n, _, A4n = normalize_to_flat_chart(random_scrambled_curve(r, 3)).numeric()
        low = rng.normal(size=(r + 1, r - 2)) @ rng.normal(size=(r - 2, r))
        A3n = low - (A1n * p[0] + A2n * p[1] + complex(t) * A4n)
        _, ok = point_derivative((A1n, A2n, A3n, A4n), [t], [p], basis_arrays(r))
        assert ok.tolist() == [False]


def test_point_derivative_of_no_points():
    # a pass of extract_metric whose every fiber failed calls with no points
    chart = normalize_to_flat_chart(random_scrambled_curve(2, 0))
    deltas, ok = point_derivative(chart.numeric(), [], [], basis_arrays(2))
    assert deltas.shape == (0, 12, 2) and ok.shape == (0,)


def _column_replaced_det(n, c, col):
    m = n.copy()
    m[:, c] = col
    return complex(np.linalg.det(m))


def _reference_point_derivative(chart, t, point, sections, consistency_tol=1e-8):
    """One section and one column at a time: the oracle for the stacked version."""
    A1n, A2n, A3n, A4n = chart.numeric()
    r = chart.r
    u, v = point
    tn = complex(t)
    M = A1n * u + A2n * v + A3n + tn * A4n
    grads = []
    for k in range(r + 1):
        rows = [a for a in range(r + 1) if a != k]
        N = M[rows]
        gu = sum(_column_replaced_det(N, c, A1n[rows][:, c]) for c in range(r))
        gv = sum(_column_replaced_det(N, c, A2n[rows][:, c]) for c in range(r))
        grads.append((gu, gv, rows, N))
    pairs = sorted(
        (
            (abs(grads[a][0] * grads[b][1] - grads[a][1] * grads[b][0]), a, b)
            for a in range(r + 1)
            for b in range(a + 1, r + 1)
        ),
        reverse=True,
    )
    solvable = [
        (a, b, np.array([[grads[a][0], grads[a][1]], [grads[b][0], grads[b][1]]]))
        for det_ab, a, b in pairs[:2]
        if det_ab != 0
    ]
    out = np.empty((len(sections), 2), dtype=complex)
    for s_idx, section in enumerate(sections):
        D = np.array(to_complex(section.dA3)) + tn * np.array(to_complex(section.dA4))
        deltas = [
            sum(_column_replaced_det(N, c, D[rows][:, c]) for c in range(r))
            for _gu, _gv, rows, N in grads
        ]
        best, *others = [
            np.linalg.solve(J, -np.array([deltas[a], deltas[b]])) for a, b, J in solvable
        ]
        scale = max(1.0, float(np.abs(best).max()))
        for sol in others:
            if float(np.abs(sol - best).max()) > consistency_tol * scale:
                raise ArithmeticError("minor pairs disagree on the point derivative")
        out[s_idx] = best
    return out


@pytest.mark.parametrize(
    "r, seed, flat", [(1, 0, True), (2, 3, True), (3, 1, True), (2, 5, False)]
)
def test_point_derivative_bit_identical_to_per_section_reference(r, seed, flat):
    curve = random_scrambled_curve(r, seed)
    chart = normalize_to_flat_chart(curve) if flat else curve
    basis = real_tangent_basis(r)
    ts, points = [], []
    for t, pts in zip(sample_parameters(3), fiber_points(ACMCurve(chart), sample_parameters(3))):
        for u, v in pts:
            ts.append(t)
            points.append((complex(u), complex(v)))
    assert len(points) == 3 * r * (r + 1) // 2
    # one call over the points of three fibers with different t
    batched, ok = point_derivative(chart.numeric(), ts, points, basis_arrays(r))
    assert batched.shape == (len(points), len(basis), 2)
    assert ok.all()
    for t, point, deltas in zip(ts, points, batched):
        # the minor pairs, which agree with each other, agree with the kernel route
        reference = _reference_point_derivative(chart, t, point, basis)
        assert np.abs(deltas - reference).max() <= 1e-12 * np.abs(reference).max()
        alone, ok_alone = point_derivative(chart.numeric(), [t], [point], basis_arrays(r))
        assert ok_alone.tolist() == [True]
        assert np.array_equal(alone[0].real, deltas.real) and np.array_equal(alone[0].imag, deltas.imag)


def _sequential_walk(curve, slice_points=reference_fiber_points, num_fibers=7):
    """extract_metric's parameters as one fiber at a time would accept them."""
    numeric, basis = curve.matrix.numeric(), basis_arrays(curve.r)
    ts = []
    for t in sample_parameters(16):
        if len(ts) == num_fibers:
            break
        pts = slice_points(curve, t)
        if pts is None:
            continue
        points = [(complex(u), complex(v)) for u, v in pts]
        if point_derivative(numeric, [t] * len(points), points, basis)[1].all():
            ts.append(t)
    return ts


@pytest.mark.parametrize(
    "r, seed, flat", [(1, 0, True), (2, 3, True), (2, 5, False), (3, 1, True), (3, 2, False)]
)
def test_extract_metric_accepts_the_parameters_of_the_per_slice_walk(r, seed, flat):
    curve = random_scrambled_curve(r, seed)
    chart = ACMCurve(normalize_to_flat_chart(curve) if flat else curve)
    assert list(extract_metric(chart).parameters) == _sequential_walk(chart)


def test_extract_metric_skips_exactly_a_fiber_moved_off_the_curve(monkeypatch):
    chart = ACMCurve(normalize_to_flat_chart(random_scrambled_curve(2, 3)))
    moved = sample_parameters(7)[2]
    real_pass = twistor_metric.fiber_points

    def off_the_curve(t, pts):
        return [(complex(u) + 0.3, complex(v) - 0.2) for u, v in pts] if t == moved else pts

    def moved_pass(curve, ts):
        return [off_the_curve(t, pts) for t, pts in zip(ts, real_pass(curve, ts))]

    monkeypatch.setattr(twistor_metric, "fiber_points", moved_pass)
    frame = extract_metric(chart)
    assert moved not in frame.parameters
    assert list(frame.parameters) == _sequential_walk(
        chart, lambda curve, t: off_the_curve(t, reference_fiber_points(curve, t)))
    assert list(frame.parameters) == [t for t in sample_parameters(8) if t != moved]


def test_extract_metric_walks_one_period_of_candidates(monkeypatch):
    # every candidate is rejected; the walk tries each of the 16 once
    calls = []

    def refused(curve, ts):
        calls.extend(ts)
        return [None] * len(ts)

    monkeypatch.setattr(twistor_metric, "fiber_points", refused)
    with pytest.raises(ArithmeticError, match=r"^only 0 usable fibers of 5 needed$"):
        extract_metric(ACMCurve(normalize_to_flat_chart(random_scrambled_curve(2, 3))))
    assert calls == sample_parameters(16)


def test_singular_stacked_solve_drops_only_its_own_fiber(monkeypatch):
    chart = ACMCurve(normalize_to_flat_chart(random_scrambled_curve(2, 3)))
    clean = extract_metric(chart)
    points_per_fiber = 3
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        # the 2x2 tangent system of the first point of the third fiber, in
        # the first pass over seven fibers, gets two equal rows
        if a.shape == (7 * points_per_fiber, 2, 2):
            a[2 * points_per_fiber, 1] = a[2 * points_per_fiber, 0]
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    frame = extract_metric(chart)
    dropped = sample_parameters(7)[2]
    assert list(clean.parameters) == sample_parameters(7)
    assert list(frame.parameters) == [t for t in sample_parameters(8) if t != dropped]
    assert np.allclose(frame.gram, clean.gram, atol=1e-9)


def _full_table_matrices(fiber):
    """Multiplication matrices read off the normal-form table of every row."""
    basis = fiber.quotient_basis()
    index = {m: i for i, m in enumerate(basis)}
    table = normal_form_table(fiber.echelon)
    mats = []
    for du, dv in ((1, 0), (0, 1)):
        cols = []
        for m in basis:
            col = [ZERO] * len(basis)
            pcol = fiber.col_index[(m[0] + du, m[1] + dv)]
            sub = table.get(pcol, {pcol: ONE})
            for c2, v2 in sub.items():
                col[index[fiber.columns[c2]]] = v2
            cols.append(col)
        mats.append(ExactMatrix([list(row) for row in zip(*cols)]))
    return tuple(mats)


def test_truncated_table_gives_the_full_multiplication_matrices():
    pairs = [
        (ACMCurve(normalize_to_flat_chart(random_scrambled_curve(r, seed))), t)
        for r, seed in ((2, 0), (3, 1))
        for t in random_fiber_parameters(5, seed)
    ]
    for curve, t in pairs:
        fiber = AffineFiber(fiber_generators(curve, t), curve.r + 2)
        assert fiber.multiplication_matrices() == _full_table_matrices(fiber)


def test_basis_arrays_are_cached_and_read_only():
    dA3, dA4 = basis_arrays(2)
    assert basis_arrays(2)[0] is dA3
    assert dA3.shape == dA4.shape == (12, 3, 2)
    with pytest.raises(ValueError):
        dA3[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        dA4[...] = 0.0


def test_sample_parameters_distinct_and_offset_consistent():
    ts = sample_parameters(16)
    assert len(set(ts)) == 16
    assert ts == sample_parameters(16)
    assert sample_parameters(7) == ts[:7]
    # period 16: the walk of extract_metric sees every candidate in one period
    assert sample_parameters(35)[16:] == ts + ts[:3]
    for t in ts:
        assert not t.is_zero()


def test_fit_quadratic_recovers_planted_coefficients():
    rng = np.random.default_rng(21)
    planted = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    ts = [complex(t) for t in sample_parameters(6)]
    ws = np.stack([planted[0] + planted[1] * t + planted[2] * t * t for t in ts])
    coeffs, resid = fit_quadratic(ts, ws)
    assert np.allclose(coeffs, planted, atol=1e-10)
    assert resid < 1e-10


def test_frames_report_matches_the_stacked_mean():
    rng = np.random.default_rng(5)
    grams = [np.eye(12) * 3.0 + rng.normal(scale=1e-7, size=(12, 12)) for _ in range(300)]
    frames = [
        SimpleNamespace(gram=g, signature=(8, 4), fit_residual=0.0, quaternion_residuals={"x": 0.0})
        for g in grams
    ]
    stack = np.stack(grams)
    mean = stack.mean(axis=0)
    expected = float(np.abs(stack - mean).max()) / max(1.0, float(np.abs(mean).max()))
    report = frames_report(2, frames, skip_sigma_gauge=False)
    assert report.max_relative_deviation == expected
    assert report.passed


def test_extract_metric_on_a_line_gives_the_flat_identity():
    chart = ACMCurve(normalize_to_flat_chart(random_scrambled_curve(1, 5)))
    frame = extract_metric(chart)
    assert frame.gram.shape == (4, 4)
    assert np.allclose(frame.gram, np.eye(4), atol=1e-9)
    assert frame.signature == (4, 0)
    assert frame.fit_residual < 1e-10
    assert max(frame.quaternion_residuals.values()) < 1e-10
    assert np.allclose(frame.I @ frame.J, frame.K, atol=1e-12)


def test_gram_is_I_invariant():
    chart = ACMCurve(normalize_to_flat_chart(random_scrambled_curve(2, 6)))
    frame = extract_metric(chart)
    g = frame.gram
    assert np.allclose(g, g.T, atol=1e-8 * max(1.0, np.abs(g).max()))
    assert frame.quaternion_residuals["I_compatibility"] < 1e-8


def test_frame_owns_no_array_but_its_gram():
    # a scan keeps every frame, so a frame holds the gram and shares the rest
    frame = extract_metric(ACMCurve(normalize_to_flat_chart(random_scrambled_curve(2, 3))))
    values = {f.name: getattr(frame, f.name) for f in dataclasses.fields(frame)}
    owned = [name for name, v in values.items()
             if isinstance(v, np.ndarray) and v.flags.writeable and v.flags.owndata]
    assert owned == ["gram"]
    assert frame.gram.base is None
    assert all(mine is shared for mine, shared in zip((frame.I, frame.J, frame.K), structure_arrays(2)))


def test_flatness_scan_small():
    report = flatness_scan(2, num_points=3, seed=1)
    assert report.passed
    assert report.signature_constant
    assert report.max_relative_deviation < 1e-6
    assert report.num_points == 3


def test_flatness_scan_control_fails_without_normalization():
    report = flatness_scan(2, num_points=3, seed=1, skip_sigma_gauge=True)
    assert not report.passed
    # the residuals alone fail the verdict, so constancy must break too
    assert report.max_relative_deviation >= 1e-6 or not report.signature_constant


@pytest.mark.parametrize("r", [1, 2, 3])
def test_single_chart_control_fails_on_its_quaternion_residuals(r):
    # one chart is constant by itself, so the raw gauge must fail on its residuals
    report = flatness_scan(r, num_points=1, seed=0, skip_sigma_gauge=True)
    assert report.max_relative_deviation == 0.0 and report.signature_constant
    assert report.max_quaternion_residual > 1e-6
    assert not report.passed


def test_random_scrambled_curve_is_deterministic():
    a = random_scrambled_curve(2, 11)
    b = random_scrambled_curve(2, 11)
    c = random_scrambled_curve(2, 12)
    assert tuple(a.coeffs) == tuple(b.coeffs)
    assert tuple(a.coeffs) != tuple(c.coeffs)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_point_derivative_chart_norms_are_the_spectral_norms(r):
    # point_derivative reads the largest singular value of each coefficient
    # matrix, the value np.linalg.norm(..., 2, axis=(1, 2)) returns
    stack = np.stack(scan_chart(r, 0, 1, 0).matrix.numeric())
    got = np.linalg.svd(stack, compute_uv=False)[:, 0]
    assert got.tobytes() == np.linalg.norm(stack, 2, axis=(1, 2)).tobytes()
