"""Sheaf cohomology from the length-one resolution, plus normal sections."""

import random
import time

import pytest

from hkcurves import cohomology
from hkcurves.acm_curve import ACMCurve, LinearMatrix, random_sigma_curve
from hkcurves.cohomology import (
    chi_line_bundle,
    cohomology_table,
    ellia_stability_check,
    ideal_cohomology,
    normal_sections,
    normal_sheaf_report,
)
from hkcurves.exact_algebra.linalg import ExactMatrix, random_invertible
from hkcurves.exact_algebra.polys import monomial_count
from hkcurves.exact_algebra.scalars import GaussianRational

from suites import form_ideal

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def test_line_bundle_cohomology():
    # h^0 and h^3 of O(m) on P^3 count the monomials of degrees m and -m-4,
    # and h^1 = h^2 = 0, so their difference is the Euler characteristic
    for m in range(-8, 9):
        assert monomial_count(4, m) - monomial_count(4, -m - 4) == chi_line_bundle(m)
    assert (monomial_count(4, 0), monomial_count(4, -4)) == (1, 0)


def test_table_r2_frozen():
    curve = random_sigma_curve(2, 0)
    table = cohomology_table(curve, -1, 3)
    assert table.rows == (
        (0, 0, 2, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (3, 0, 0, 0),
        (10, 0, 0, 0),
    )


def test_table_r3_frozen():
    curve = random_sigma_curve(3, 0)
    table = cohomology_table(curve, 0, 4)
    assert table.rows == (
        (0, 0, 3, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (4, 0, 0, 0),
        (13, 0, 0, 0),
    )


def test_h2_at_low_twist_counts_rows():
    # the twist r-3 sees the full dual contribution of the target module
    for r in (2, 3):
        curve = random_sigma_curve(r, 1)
        assert ideal_cohomology(curve, r - 3) == (0, 0, r, 0)


def test_euler_characteristic_per_row():
    # alternating sum equals chi(O_P3(k)) - (d*k + 1 - g), any twist
    for r, seed in ((2, 2), (3, 2)):
        curve = random_sigma_curve(r, seed)
        d, g = curve.degree, curve.genus
        table = cohomology_table(curve, r - 4, r + 2)
        for k, row in zip(range(table.kmin, table.kmax + 1), table.rows):
            chi_plane = (k + 1) * (k + 2) * (k + 3) // 6
            chi_curve = d * k + 1 - g
            assert row[0] - row[1] + row[2] - row[3] == chi_plane - chi_curve


def test_h0_matches_independent_echelon():
    # h0 of the twisted ideal recounted by a bare echelon of the minors
    for r, seed in ((2, 3), (3, 3)):
        curve = random_sigma_curve(r, seed)
        fresh = form_ideal(curve.minors)
        for k in range(r - 2, r + 2):
            assert ideal_cohomology(curve, k)[0] == fresh.dimension(k)


def test_h1_vanishes_everywhere_checked():
    curve = random_sigma_curve(2, 4)
    table = cohomology_table(curve, -3, 4)
    assert all(row[1] == 0 for row in table.rows)


def test_table_row_accessor_and_bounds():
    curve = random_sigma_curve(2, 5)
    table = cohomology_table(curve, 0, 2)
    assert table.rows[1 - table.kmin] == ideal_cohomology(curve, 1)
    with pytest.raises(ValueError):
        cohomology_table(curve, 2, 0)


def test_ellia_stability_check_on_certified_curves():
    for r in (2, 3):
        assert ellia_stability_check(random_sigma_curve(r, 6))


@pytest.mark.parametrize("twist", ["r-2", "r-1"])
def test_ellia_stability_check_reads_each_twist(twist, monkeypatch):
    # a table nonzero at twist r-2 alone, or at r-1 alone, fails the
    # verdict, whichever entry of the row it is
    curve = random_sigma_curve(2, 6)
    bad = curve.r - {"r-2": 2, "r-1": 1}[twist]
    for slot in range(4):
        row = tuple(int(i == slot) for i in range(4))
        monkeypatch.setattr(cohomology, "ideal_cohomology", lambda c, k: row if k == bad else (0, 0, 0, 0))
        assert not ellia_stability_check(curve)


def test_cohomology_requires_certificate():
    A1 = ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    A2 = ExactMatrix([[ZERO, ZERO], [ZERO, ONE], [ONE, ZERO]])
    zero = ExactMatrix([[ZERO, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    bad = ACMCurve(LinearMatrix(2, A1, A2, zero, zero))
    with pytest.raises(ValueError):
        ideal_cohomology(bad, 1)
    with pytest.raises(ValueError):
        normal_sections(bad, 0)


# ---------------------------------------------------------------------------
# normal sections


def test_normal_sections_r1_line():
    # the entries span the line's ideal, so the pairing map vanishes on C:
    # kernel is everything, h0(N) = 4 and h0(N(-1)) = 2
    curve = random_sigma_curve(1, 0)
    report = normal_sheaf_report(curve)
    assert (report.sections, report.sections_minus_1) == (4, 2)
    assert report.ok


def test_normal_sections_r2():
    # twisted cubic (d = 3, g = 0): deg N = 4d + 2g - 2 = 10, so
    # chi(N) = 10 + 2(1 - g) = 12 and h1 = 0 forces h0(N) = 12
    curve = random_sigma_curve(2, 7)
    report = normal_sheaf_report(curve)
    assert (report.sections, report.sections_minus_1) == (12, 6)
    assert report.ok


def test_normal_sections_r3():
    # genus 3 sextic: deg N = 4*6 + 2*3 - 2 = 28, chi = 28 + 2(1 - 3) = 24
    curve = random_sigma_curve(3, 7)
    report = normal_sheaf_report(curve)
    assert (report.sections, report.sections_minus_1) == (24, 12)
    assert report.ok


def test_normal_sections_twist_validation():
    curve = random_sigma_curve(2, 8)
    with pytest.raises(ValueError):
        normal_sections(curve, 1)
    with pytest.raises(ValueError):
        normal_sections(curve, -2)


def test_normal_sections_gauge_invariant():
    # the section counts are properties of the curve, not the matrix gauge
    curve = random_sigma_curve(2, 9)
    rng = random.Random(9)

    gauged = ACMCurve(curve.matrix.gauge(random_invertible(3, rng), random_invertible(2, rng)))
    assert gauged.certificate().ok
    assert normal_sections(gauged, 0) == normal_sections(curve, 0)
    assert normal_sections(gauged, -1) == normal_sections(curve, -1)


def test_normal_bundle_counts_through_r6():
    # the paper's h0(N) = 2r(r+1) and h0(N(-1)) = r(r+1) beyond the r = 2, 3
    # of criterion 3, one certified curve each; ~0.2 s measured on a 2-core
    # Xeon VM, nearly all of it drawing and certifying the curves, budget 20 s
    t0 = time.perf_counter()
    counts = []
    for r in (4, 5, 6):
        report = normal_sheaf_report(random_sigma_curve(r, 0))
        counts.append((report.sections, report.sections_minus_1))
    elapsed = time.perf_counter() - t0
    assert counts == [(2 * r * (r + 1), r * (r + 1)) for r in (4, 5, 6)]
    assert elapsed < 20.0, f"{elapsed:.2f}s against a 20s budget"
