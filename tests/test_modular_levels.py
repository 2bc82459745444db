"""Modular graded levels scattered from the generators reduced once per prime.

`GradedIdeal._level_mod` must equal `rows_mod` of the exact row stream,
entry by entry, and a certificate sweep must reduce the generators only
once per prime.
"""

import numpy as np
import pytest

from hkcurves.acm_curve import ACMCurve, predicted_ideal_dimension, random_sigma_curve
from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.polys import monomial_count


@pytest.mark.parametrize("r", [2, 3])
def test_scattered_levels_equal_reduced_row_stream(r):
    curve = random_sigma_curve(r, 0)
    ideal = curve.ideal
    for k in range(ideal.gen_degree, 2 * r + 3):
        ncols = monomial_count(4, k)
        rows = ideal._row_stream(k)
        for p, s in modp.PRIMES:
            level = ideal._level_mod(k, p, s)
            want = modp.rows_mod(rows, ncols, p, s)
            assert level.dtype == want.dtype and level.shape == want.shape, (k, p)
            assert np.array_equal(level, want), (k, p)


def test_certificate_reduces_generators_once_per_prime(monkeypatch):
    matrix = random_sigma_curve(3, 1).matrix
    calls = []
    rows_mod = modp.rows_mod

    def counting(rows, ncols, p, s):
        calls.append((len(rows), ncols, p))
        return rows_mod(rows, ncols, p, s)

    monkeypatch.setattr(modp, "rows_mod", counting)
    curve = ACMCurve(matrix)
    certificate = curve.certificate()
    assert certificate.ok
    assert list(certificate.dimensions) == [predicted_ideal_dimension(3, k) for k in range(9)]
    # the first prime pins every level; its one reduction is of the 4 minors
    assert calls == [(4, monomial_count(4, 3), modp.PRIMES[0][0])]
