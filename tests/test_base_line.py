"""The base line L0 = {x2 = x3 = 0} decides the certificate and the slices.

When the (r+1) x (r+1) matrix T of the minors restricted to L0 is
invertible, the curve misses L0: the certificate ranks no level, every
slice has the expected Hilbert function, and the multiplication matrices
come from T^-1 with no echelon.  The echelon of `suites.AffineFiber` is the
oracle here.  A curve that meets L0 keeps the certificate's level route,
and every slice entry point refuses it: it is not a curve of Z.
"""

from fractions import Fraction

import numpy as np
import pytest

from hkcurves import cohomology
from hkcurves.acm_curve import (
    ACMCurve,
    LinearMatrix,
    avoids_base_line,
    expected_hilbert,
    fiber_hilbert_function,
    fiber_multiplication_matrices,
    fiber_points,
    random_fiber_parameters,
    random_real_curve,
    random_sigma_curve,
    restrict_to_fiber,
    stratum_check,
)
from hkcurves.acm_curve import fibers
from hkcurves.acm_curve.fibers import fiber_generators, hilbert_profile
from hkcurves.cli import document_to_curve
from hkcurves.exact_algebra.ideals import GradedIdeal
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.scalars import GaussianRational
from hkcurves.pencil import is_injective_pencil
from hkcurves.twistor_metric import extract_metric, sample_parameters

from suites import (
    AffineFiber,
    reference_fiber_points,
    reference_generators,
    reference_slice_tables,
    swapped,
    table_curves,
    to_complex,
)
from test_cli import _degenerate_document
from test_resolution_exactness import FACTORS, _common_factor_matrix

SPECIAL = [GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)]
MEETS_L0 = "meets the base line L0"


def singular_base_line(monkeypatch):
    """Report T singular on every curve, which forces the certificate's level route."""
    monkeypatch.setattr(ACMCurve, "base_line_rank", property(lambda curve: curve.r))


def record_calls(monkeypatch, owner, name, results=False):
    """List of the arguments of each call, or with `results` of its result."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(out if results else args)
        return out

    monkeypatch.setattr(owner, name, recording)
    return calls


def meets_base_line(seed=0):
    """A certified r = 2 curve through [1:0:0:0] on L0: column 0 of A1 is
    zeroed, so the pencil's column 0 is x1 * A2[:, 0] and vanishes at x1 = 0."""
    A1, A2, A3, A4 = random_sigma_curve(2, seed).coeffs
    rows = [[GaussianRational(0)] + list(row[1:]) for row in A1.data]
    return ACMCurve(LinearMatrix(2, ExactMatrix(rows), A2, A3, A4))


def _rationals(table, den):
    """Each (re or im) coefficient of a slice table over its denominator."""
    den = np.broadcast_to(den[..., None], table.shape[1:])
    return [[Fraction(x, d) for x, d in zip(part.flat, den.flat)] for part in table]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_slice_tables_equal_the_reference_built_from_forms(r):
    # scattered from the minor table: with D = 1 the same Python ints as the
    # minors' forms give, with D = 6 or a lifted table the same rationals
    for n, curve in enumerate(table_curves(r)):
        got, want = curve.slice_tables, reference_slice_tables(curve)
        assert all(type(x) is int for table in got for x in table.flat)
        if n == 0:
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        for k in (0, 2):
            assert got[k].shape == want[k].shape
            assert _rationals(got[k], got[k + 1]) == _rationals(want[k], want[k + 1])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_fiber_generators_equal_the_reference_as_rationals(r):
    # numerators over D^r te^r, not reduced: with D = 1 the reference's
    # exact pairs, with D = 6 or a lifted table the same rationals
    def rationals(gens):
        return [{m: (Fraction(a, n), Fraction(b, n)) for m, (a, b) in g.items()} for g, n in gens]

    params = SPECIAL + [GaussianRational(Fraction(2, 3), Fraction(-1, 5))]
    curves = table_curves(r)
    for n, curve in enumerate(curves):
        for t in params:
            got, want = fiber_generators(curve, t), reference_generators(curve, t)
            if n == 0:
                assert got == want
            assert rationals(got) == rationals(want)
    assert {n for _, n in fiber_generators(curves[1], params[-1])} == {6**r * 15**r}


def test_curve_sections_pool_takes_the_border_route(monkeypatch):
    # the call sequence of one curve-sections item, on the seeds 1-3 pools
    levels = record_calls(monkeypatch, GradedIdeal, "dimension")
    for n in (1, 2, 3):
        for k in range(6):
            seed = n * 1000 + k
            curve = random_sigma_curve(3, seed)
            fresh = ACMCurve(curve.matrix)
            cohomology.cohomology_table(fresh, -2, 5)
            assert cohomology.ellia_stability_check(fresh)
            assert cohomology.normal_sheaf_report(fresh).ok
            assert fresh.base_line_rank == 4
            for t in random_fiber_parameters(5, seed):
                scheme = restrict_to_fiber(fresh, t)
                profile = fiber_hilbert_function(scheme)
                assert stratum_check(scheme)
                assert scheme.length() == fresh.degree
                assert profile == AffineFiber(fiber_generators(fresh, t), 5).profile()
    assert levels == []


def seeded_curves(r):
    return [random_sigma_curve(r, 0), random_real_curve(r, 0)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_border_matrices_equal_the_echelon(r, monkeypatch):
    # the tables in floats: the matrices that fiber_points diagonalizes, then the generators
    floats = record_calls(monkeypatch, fibers, "_floats", results=True)
    params = sample_parameters(7) + SPECIAL
    # each curve's slices, then its slices at infinity: those of the swapped curve
    for curve in (c for seeded in seeded_curves(r) for c in (seeded, swapped(seeded))):
        assert avoids_base_line(curve)
        floats.clear()
        fiber_points(curve, params)
        matrices, _ = floats
        for t, (nu, nv) in zip(params, matrices):
            gens = fiber_generators(curve, t)
            assert gens == reference_generators(curve, t)
            fiber = AffineFiber(gens, r + 2)
            mu, mv = fiber_multiplication_matrices(curve, t)
            ref_u, ref_v = fiber.multiplication_matrices()
            # equal to the echelon's, and commuting: Mourrain's criterion
            assert (mu, mv) == (ref_u, ref_v)
            # born as integer forms, equal to the matrices built from the
            # GaussianRational entries (a + b i) / n of the evaluated tables
            num, dens = fibers._evaluate(curve.slice_tables[2], curve.slice_tables[3], fibers._weights([t], r))
            built = [
                ExactMatrix([[GaussianRational.over(a, b, dens.flat[0]) for a, b in zip(ra, ia)] for ra, ia in zip(re, im)])
                for re, im in zip(*num[:, 0].tolist())
            ]
            assert [mu, mv] == built and [mu.data, mv.data] == [m.data for m in built]
            assert mu @ mv == mv @ mu
            assert hilbert_profile(curve, t) == fiber.profile()
            assert np.array_equal(nu, np.array(to_complex(ref_u)))
            assert np.array_equal(nv, np.array(to_complex(ref_v)))


@pytest.mark.parametrize("r", [2, 3])
def test_border_points_equal_the_echelon_points(r):
    curve = random_sigma_curve(r, 1)
    params = random_fiber_parameters(3, r) + SPECIAL
    border = fiber_points(curve, params)
    # the same eigensolve, slice by slice, on the reference echelon's matrices
    echelon = [reference_fiber_points(curve, t) for t in params]
    assert all(np.array_equal(a, b) for a, b in zip(border, echelon))


def test_curve_meeting_the_base_line_ranks_a_level_and_is_refused(monkeypatch):
    curve = meets_base_line()
    assert curve.base_line_rank < curve.r + 1
    assert not avoids_base_line(curve)
    levels = record_calls(monkeypatch, GradedIdeal, "dimension")
    cert = curve.certificate()
    assert cert.ok and cert.dimensions == cert.expected
    assert [args[1] for args in levels] == [2 * curve.r - 1]
    t = GaussianRational(Fraction(1, 2), 1)
    # the point [1:0:0:0] lies on every plane, at infinity in the chart, so
    # the affine slice has two points and the truncated profile never settles
    for cutoff, profile in ((4, (1, 2, 2, 2, 3)), (6, (1, 2, 2, 2, 2, 2, 3))):
        fiber = AffineFiber(fiber_generators(curve, t), cutoff)
        assert fiber.profile() == profile and not fiber.stabilized()
    routes = [
        lambda: hilbert_profile(curve, t),
        lambda: restrict_to_fiber(curve, t),
        lambda: fiber_multiplication_matrices(curve, t),
        lambda: fiber_points(curve, [t]),
        lambda: fiber_points(swapped(curve), [t]),
        lambda: extract_metric(curve),
    ]
    for route in routes:
        with pytest.raises(ValueError, match=MEETS_L0):
            route()


@pytest.mark.parametrize("r, ells", FACTORS[:2])
def test_common_factor_certificates_keep_their_sweep(r, ells, monkeypatch):
    matrix = _common_factor_matrix(r, ells, seed=r)
    cert = ACMCurve(matrix).certificate()
    assert ACMCurve(matrix).base_line_rank < r + 1
    assert not cert.ok
    singular_base_line(monkeypatch)
    assert ACMCurve(matrix).certificate() == cert


def test_degenerate_certificate_keeps_its_sweep(monkeypatch):
    curve = document_to_curve(_degenerate_document(3))
    assert not avoids_base_line(curve)
    cert = curve.certificate()
    assert not cert.ok and cert.mismatches
    singular_base_line(monkeypatch)
    assert document_to_curve(_degenerate_document(3)).certificate() == cert


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_certificate_equals_the_level_route(r, monkeypatch):
    curves = seeded_curves(r)
    levels = record_calls(monkeypatch, GradedIdeal, "dimension")
    border = [ACMCurve(c.matrix).certificate() for c in curves]
    assert levels == []
    singular_base_line(monkeypatch)
    assert [ACMCurve(c.matrix).certificate() for c in curves] == border
    assert all(cert.ok and cert.dimensions == cert.expected for cert in border)
    assert {args[1] for args in levels} == {2 * r - 1}


def test_avoids_base_line_is_the_pencil_test():
    curves = [c for r in (1, 2, 3, 4) for c in seeded_curves(r)]
    curves += [meets_base_line(seed) for seed in (0, 1)]
    curves += [ACMCurve(_common_factor_matrix(r, ells, seed=r)) for r, ells in FACTORS]
    curves.append(document_to_curve(_degenerate_document(3)))
    answers = [avoids_base_line(c) for c in curves]
    assert answers == [is_injective_pencil(c.coeffs[0], c.coeffs[1]).ok for c in curves]
    assert answers.count(False) == 8


def test_expected_profile_is_the_display():
    curve = random_sigma_curve(2, 0)
    scheme = restrict_to_fiber(curve, GaussianRational(2, -1))
    assert scheme.profile == tuple(expected_hilbert(2, k) for k in range(5))
