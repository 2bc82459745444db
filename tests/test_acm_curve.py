"""Determinantal curves: invariants, certificates, and planar slices."""

import random
import time
from fractions import Fraction

import pytest

from hkcurves.acm_curve import (
    MAX_FIBERS,
    ACMCurve,
    LinearMatrix,
    avoids_base_line,
    certify_resolution,
    curve_degree,
    curve_genus,
    expected_hilbert,
    fiber_hilbert_function,
    hilbert_profile,
    invariants,
    predicted_ideal_dimension,
    random_fiber_parameters,
    random_real_curve,
    random_sigma_curve,
    restrict_to_fiber,
    stratum_check,
)
from hkcurves.acm_curve.fibers import backward_errors, fiber_generators, fiber_points
from hkcurves.exact_algebra.ideals import GradedIdeal
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import form_pairs
from hkcurves.exact_algebra.scalars import GaussianRational
from hkcurves.pencil import canonical_pair, is_injective_pencil
from hkcurves.twistor_metric import sample_parameters, scan_chart
from hkcurves.reality import is_sigma_invariant_ideal

from suites import entry_forms, form, generator_floats, poly_add, poly_neg, poly_sub, swapped

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def test_invariants_table():
    # degree r(r+1)/2, genus (r-1)(r-2)(2r+3)/6
    # cross-check for r = 3: h0(O_C(4)) = 35 - dim I_4 = 35 - 13 = 22 and
    # chi = 6*4 + 1 - g with vanishing h1 forces g = 3
    assert [invariants(r) for r in range(1, 6)] == [
        (1, 0),
        (3, 0),
        (6, 3),
        (10, 11),
        (15, 26),
    ]
    for r in range(1, 6):
        assert curve_degree(r) == r * (r + 1) // 2
        assert curve_genus(r) == (r - 1) * (r - 2) * (2 * r + 3) // 6


def test_invariants_reject_bad_r():
    with pytest.raises(ValueError):
        invariants(0)


def test_cofactor_identity_of_signed_minors():
    # Laplace: the signed minors are a syzygy of every column
    for seed in range(4):
        curve = random_real_curve(2, seed=seed)
        entries = entry_forms(curve.coeffs)
        minors = curve.minors
        r = curve.r
        for j in range(r):
            acc = form(4, r + 1, {})
            for i in range(r + 1):
                acc = poly_add(acc, entries[i][j] * minors[i])
            assert acc == form(4, r + 1, {})


@pytest.mark.parametrize("r,k", [(2, 0), (2, 2), (3, 1)])
def test_cofactor_check_fails_on_a_perturbed_minor(r, k):
    # the check reads the stored minors and entries, so a wrong minor shows
    curve = random_real_curve(r, seed=0)
    assert certify_resolution(curve).cofactor_identity
    x0_r = form(4, r, {(r, 0, 0, 0): ONE})
    curve.minors = [poly_add(m, x0_r) if i == k else m for i, m in enumerate(curve.minors)]
    cert = certify_resolution(curve)
    assert cert.cofactor_identity is False
    assert cert.ok is False


@pytest.mark.parametrize("r,i,j", [(2, 0, 1), (2, 2, 0), (3, 1, 2)])
def test_cofactor_check_fails_on_a_perturbed_entry(r, i, j):
    # the check reads the stored minors against the stored matrix, so a
    # wrong matrix entry shows though every minor is kept
    curve = random_real_curve(r, seed=0)
    minors = list(curve.minors)
    assert all(not m.is_zero() for m in minors)
    A1, A2, A3, A4 = curve.coeffs
    bumped = ExactMatrix([[z + ONE if (a, b) == (i, j) else z for b, z in enumerate(row)] for a, row in enumerate(A3.data)])
    curve.pairs = form_pairs([M.integer_form for M in (A1, A2, bumped, A4)])
    cert = certify_resolution(curve)
    assert curve.minors == minors
    assert cert.cofactor_identity is False
    assert cert.ok is False


def test_signed_minors_match_unsigned_up_to_sign():
    # the minors are the cofactors of an appended column: (-1)^i times the
    # determinant without row i, here expanded from the reference entries
    curve = random_real_curve(2, seed=1)
    (a, b), (c, d), (e, f) = entry_forms(curve.coeffs)
    assert [poly_sub(c * f, d * e), poly_neg(poly_sub(a * f, b * e)), poly_sub(a * d, b * c)] == list(curve.minors)


def test_constructor_rejects_identically_singular_matrix():
    r = 2
    zero = ExactMatrix([[ZERO] * r for _ in range(r + 1)])
    with pytest.raises(ValueError):
        ACMCurve(LinearMatrix(r, zero, zero, zero, zero))


def test_linear_matrix_shape_validation():
    good = ExactMatrix([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]])
    bad = ExactMatrix([[ONE, ZERO], [ZERO, ONE]])
    with pytest.raises(ValueError):
        LinearMatrix(2, good, good, good, bad)


def test_certificate_matches_predicted_dimensions():
    for r, seed in ((1, 0), (2, 0), (3, 1)):
        curve = random_real_curve(r, seed=seed)
        cert = curve.certificate()
        assert cert.ok
        assert cert.cofactor_identity and cert.syzygy_injective
        assert cert.mismatches == ()
        assert list(cert.dimensions) == [
            predicted_ideal_dimension(r, k) for k in range(len(cert.dimensions))
        ]


def test_fresh_ideal_agrees_with_prediction():
    # independent recount: a bare echelon with no certified bound
    curve = random_real_curve(2, seed=3)
    fresh = GradedIdeal(list(curve.minors))
    for k in range(0, 6):
        assert fresh.dimension(k) == predicted_ideal_dimension(2, k)


def test_certificate_fails_for_non_injective_pencil():
    # shared pencil root forces a codimension-1 component; dims must mismatch
    A1 = ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    A2 = ExactMatrix([[ZERO, ZERO], [ZERO, ONE], [ONE, ZERO]])
    zero = ExactMatrix([[ZERO, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    curve = ACMCurve(LinearMatrix(2, A1, A2, zero, zero))
    cert = curve.certificate()
    assert not cert.ok
    assert cert.mismatches != ()
    assert curve.certificate().ok is False


def test_from_real_pair_builds_invariant_curve():
    rng = random.Random(12)
    r = 2
    A3 = ExactMatrix(
        [
            [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(r)]
            for _ in range(r + 1)
        ]
    )
    curve = ACMCurve.from_real_pair(A3)
    assert (curve.matrix.A1, curve.matrix.A2) == canonical_pair(r)
    assert is_sigma_invariant_ideal(curve.ideal.generators, r)


def test_random_curves_are_deterministic():
    a = random_real_curve(2, seed=7)
    b = random_real_curve(2, seed=7)
    assert a.matrix == b.matrix
    c = random_sigma_curve(2, 7)
    d = random_sigma_curve(2, 7)
    assert c.matrix == d.matrix


@pytest.mark.parametrize("drawer", [random_real_curve, random_sigma_curve])
def test_curve_drawers_reject_r_0_before_drawing(drawer, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a matrix")

    monkeypatch.setattr("hkcurves.acm_curve.curve.random_gaussian_pairs", no_draw)
    monkeypatch.setattr("hkcurves.acm_curve.curve.make_sigma_invariant_pencil", no_draw)
    with pytest.raises(ValueError, match="need r >= 1"):
        drawer(0, 3)


def test_random_sigma_curve_is_certified_invariant():
    for r in (2, 3):
        curve = random_sigma_curve(r, 0)
        assert is_injective_pencil(curve.matrix.A1, curve.matrix.A2).ok
        assert is_sigma_invariant_ideal(curve.ideal.generators, r)
        assert curve.certificate().ok
        assert avoids_base_line(curve)


def test_gauge_preserves_ideal_dimensions():
    curve = random_real_curve(2, seed=5)
    rng = random.Random(5)

    def inv(n):
        while True:
            m = ExactMatrix(
                [
                    [
                        GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            if not m.det().is_zero():
                return m

    gauged = ACMCurve(curve.matrix.gauge(inv(3), inv(2)))
    for k in (2, 3, 4):
        assert gauged.ideal.dimension(k) == curve.ideal.dimension(k)
    assert gauged.degree == curve.degree and gauged.genus == curve.genus


# ---------------------------------------------------------------------------
# planar slices


def test_expected_hilbert_display():
    # triangular numbers capped at the curve degree
    assert [expected_hilbert(2, k) for k in range(-1, 5)] == [0, 1, 3, 3, 3, 3]
    assert [expected_hilbert(3, k) for k in range(5)] == [1, 3, 6, 6, 6]


def test_fiber_length_and_profile():
    for r in (2, 3):
        curve = random_sigma_curve(r, 1)
        d = curve.degree
        for t in (GaussianRational(1, 1), GaussianRational(Fraction(2, 3), -2)):
            scheme = restrict_to_fiber(curve, t)
            assert scheme.length() == d
            profile = fiber_hilbert_function(scheme)
            assert profile == tuple(
                expected_hilbert(r, k) for k in range(len(profile))
            )
            assert stratum_check(scheme)


def test_fiber_at_infinity_chart():
    # the slice over t = infinity is the slice over 0 of the swapped curve
    curve = random_sigma_curve(2, 2)
    scheme = restrict_to_fiber(swapped(curve), GaussianRational(0, 0))
    assert scheme.length() == curve.degree
    assert stratum_check(scheme)


def test_hilbert_profile_matches_scheme():
    curve = random_sigma_curve(2, 3)
    t = GaussianRational(Fraction(1, 2), 1)
    assert hilbert_profile(curve, t) == restrict_to_fiber(curve, t).profile


def test_restrict_to_fiber_requires_certificate():
    A1 = ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    A2 = ExactMatrix([[ZERO, ZERO], [ZERO, ONE], [ONE, ZERO]])
    zero = ExactMatrix([[ZERO, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    bad = ACMCurve(LinearMatrix(2, A1, A2, zero, zero))
    # the certificate runs before the base-line refusal
    with pytest.raises(ValueError, match="resolution certificate failed"):
        restrict_to_fiber(bad, GaussianRational(1, 0))


def test_certify_resolution_is_idempotent():
    curve = random_real_curve(2, seed=9)
    first = certify_resolution(curve)
    second = curve.certificate()
    assert first == second


@pytest.mark.parametrize("r", [2, 6])
def test_slice_residual_is_a_backward_error(r):
    # the chart of `hkcurves metric --r r --count 1 --seed 0`; at r = 6 its
    # slice generators have coefficients up to 3.7e6 and points up to 32 in
    # modulus, and |g(p)| at the true points is 4e-8 to 5e-6
    curve = scan_chart(r, 0, 1, 0)
    for t in sample_parameters(3):
        pts = fiber_points(curve, [t])[0]
        coeffs = generator_floats(r, fiber_generators(curve, t))
        assert backward_errors(coeffs, pts).max() < 1e-13
        # one point moved off the curve by a relative 1e-6 fails fiber_points' test
        moved = pts.copy()
        moved[0] *= 1 + 1e-6
        errors = backward_errors(coeffs, moved)
        assert errors[0] > 1e-8 and errors[1:].max() < 1e-13


def test_fiber_parameters_are_first_draws_in_order():
    # each value at its first draw, in draw order, as a scan of the list so
    # far finds them; all MAX_FIBERS = 51^2 values come quickly, one more
    # is refused
    for seed in (0, 1):
        rng = random.Random(seed)
        drawn = []
        while len(drawn) < 200:
            t = GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            if t not in drawn:
                drawn.append(t)
        assert random_fiber_parameters(200, seed) == drawn
    start = time.perf_counter()
    every = random_fiber_parameters(MAX_FIBERS, 0)
    assert time.perf_counter() - start < 1.0
    assert MAX_FIBERS == 2601 and len(set(every)) == MAX_FIBERS
    assert every[:200] == random_fiber_parameters(200, 0)
    with pytest.raises(ValueError, match="at most 2601"):
        random_fiber_parameters(MAX_FIBERS + 1, 0)
