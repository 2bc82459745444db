"""Closed-form h^2 and h^3 against an exact rank of phi^T, and the Euler check.

`ideal_cohomology` reads h^2 and h^3 of the twisted ideal sheaf off rho,
the rank of the transposed matrix phi^T on vectors of degree r-k-4 forms,
which it takes in closed form from the certificate.  The private reference
below builds that map, (S_e)^(r+1) -> (S_(e+1))^r, e = r-k-4, from the
reference entries of the matrix of linear forms (`suites.entry_forms`) and
ranks it by exact elimination: h^3 is its kernel and h^2 its cokernel.
"""

import pytest

from hkcurves import cohomology
from hkcurves.acm_curve import random_real_curve, random_sigma_curve
from hkcurves.cohomology import chi_line_bundle, ideal_cohomology
from hkcurves.exact_algebra.ideals import sparse_row_rank
from hkcurves.exact_algebra.polys import monomial_basis, monomial_count

from suites import entry_forms, form, integer_row
from test_normal_sections_oracle import _gauged


def _ref_top_cohomology(curve, k):
    """(h^2, h^3) at twist k from the exact rank of phi^T at degree r-k-4."""
    r, e = curve.r, curve.r - k - 4
    entries = entry_forms(curve.coeffs)
    rows = {}
    for i in range(r + 1):
        for s, mono in enumerate(monomial_basis(4, e)):
            for j in range(r):
                for m, c in (entries[i][j] * form(4, e, {mono: 1})).coeffs.items():
                    rows.setdefault((j, m), {})[(i, s)] = c
    rho = sparse_row_rank([integer_row(sorted(row.items())) for row in rows.values()])
    return r * monomial_count(4, e + 1) - rho, (r + 1) * monomial_count(4, e) - rho


@pytest.mark.parametrize("draw", [random_sigma_curve, random_real_curve], ids=["sigma", "real"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_h2_and_h3_match_the_rank_of_phi_transposed(draw, r):
    # every twist with r-k-4 >= 0 up to degree 3 forms, on a drawn curve and
    # a gauged copy of it
    curve = draw(r, 2)
    for c in (curve, _gauged(curve, r)):
        assert c.certificate().ok
        for e in range(4):
            k = r - 4 - e
            assert ideal_cohomology(c, k)[2:] == _ref_top_cohomology(c, k), (r, k)


@pytest.mark.parametrize("planted", ["chi", "h0"])
def test_euler_check_raises_on_a_planted_count(planted, monkeypatch):
    # h0 + h2 - h3 = chi holds on every certified curve; chi_line_bundle or
    # the predicted h0 off by one, either way, breaks it at every twist
    curve = random_sigma_curve(2, 6)
    twists = range(-4, 7)
    # unplanted, the rows hold chi(I(k)) = chi(O(k)) - (d k + 1 - g) by Riemann-Roch on the curve
    for k in twists:
        h0, _, h2, h3 = ideal_cohomology(curve, k)
        assert h0 + h2 - h3 == chi_line_bundle(k) - (curve.degree * k + 1 - curve.genus)
    name = {"chi": "chi_line_bundle", "h0": "predicted_ideal_dimension"}[planted]
    count = {"chi": chi_line_bundle, "h0": cohomology.predicted_ideal_dimension}[planted]
    for step in (-1, 1):
        monkeypatch.setattr(cohomology, name, lambda *args: count(*args) + step)
        for k in twists:
            with pytest.raises(ArithmeticError, match=f"^Euler characteristic mismatch at twist {k}$"):
                ideal_cohomology(curve, k)
