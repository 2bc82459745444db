"""A graded level is reduced mod p once per certificate.

`GradedIdeal.dimension` ranks a level through `ideals.certified_rank`, which
reduces the level's own rows, so a passing certificate that takes its level
route reduces its one level once, at the first prime.  A curve that misses
the base line ranks no level, so the test reports T singular to reach it.
"""

from hkcurves.acm_curve import ACMCurve, predicted_ideal_dimension, random_sigma_curve
from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.polys import monomial_count


def test_certificate_reduces_its_level_once(monkeypatch):
    matrix = random_sigma_curve(3, 1).matrix
    calls = []
    rows_mod = modp.rows_mod

    def counting(rows, ncols, p, s):
        calls.append((len(rows), ncols, p))
        return rows_mod(rows, ncols, p, s)

    monkeypatch.setattr(modp, "rows_mod", counting)
    monkeypatch.setattr(ACMCurve, "base_line_rank", property(lambda curve: curve.r))
    curve = ACMCurve(matrix)
    certificate = curve.certificate()
    assert certificate.ok
    assert list(certificate.dimensions) == [predicted_ideal_dimension(3, k) for k in range(9)]
    # the first prime pins level 2r - 1 = 5: the 4 minors times the 10
    # quadratic monomials, on the 56 quintic ones
    assert calls == [(40, monomial_count(4, 5), modp.PRIMES[0][0])]
