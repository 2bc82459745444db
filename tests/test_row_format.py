"""The one row format of the exact and modular kernels.

`ideals.sparse_echelon`, `ideals.sparse_row_rank` and `modp.rows_mod` take
rows of ascending (column, a, b) int triples for a + b*i, each standing for
its Q(i) row up to a nonzero scalar.  On such rows they build no
GaussianRational, and scaling every row by a nonzero Gaussian integer
leaves the echelon as it was.
"""

import random

import pytest

from hkcurves.acm_curve import random_sigma_curve
from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.ideals import sparse_echelon, sparse_row_rank
from hkcurves.exact_algebra.polys import monomial_count
from hkcurves.exact_algebra.scalars import GaussianRational


def _times(row, x, y):
    """The row times x + y*i."""
    return [(c, a * x - b * y, a * y + b * x) for c, a, b in row]


def _planted_rows(seed, rank=5, count=12, ncols=10):
    """`count` rows spanning a space of dimension `rank`, Gaussian integers throughout."""
    rng = random.Random(seed)

    def gauss():
        return rng.randint(-9, 9), rng.randint(-9, 9)

    base = [[(c, *gauss()) for c in sorted(rng.sample(range(ncols), 4))] for _ in range(rank)]
    rows = []
    for _ in range(count):
        acc = {}
        for row in rng.sample(base, 2):
            x, y = gauss()
            for c, a, b in _times(row, x, y):
                re, im = acc.get(c, (0, 0))
                acc[c] = (re + a, im + b)
        row = [(c, a, b) for c, (a, b) in sorted(acc.items()) if a or b]
        if row:
            rows.append(row)
    return rows


def _level_rows():
    """(rows, ncols) of the graded levels of one certified r = 2 curve."""
    ideal = random_sigma_curve(2, 0).ideal
    return [(ideal._row_stream(k), monomial_count(4, k)) for k in range(2, 6)]


def test_integer_rows_build_no_gaussian_rationals(monkeypatch):
    inputs = _level_rows() + [(_planted_rows(seed), 10) for seed in range(3)]
    built = []
    init = GaussianRational.__init__

    def counting_init(obj, re=0, im=0):
        built.append((re, im))
        init(obj, re, im)

    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    for rows, ncols in inputs:
        echelon = sparse_echelon(rows)
        assert sparse_row_rank(rows) == len(echelon)
        assert all(row[0][1] > 0 and row[0][2] == 0 for row in echelon)
        for p, s in modp.PRIMES:
            assert modp.rank_mod(modp.rows_mod(rows, ncols, p, s), p) <= len(echelon)
    assert built == []


@pytest.mark.parametrize("seed", range(3))
def test_scaled_rows_give_the_same_echelon(seed):
    rng = random.Random(100 + seed)
    inputs = [rows for rows, _ in _level_rows()[:3]] + [_planted_rows(seed)]
    for rows in inputs:
        scaled = []
        for row in rows:
            x = y = 0
            while not (x or y):
                x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            scaled.append(_times(row, x, y))
        echelon = sparse_echelon(rows)
        assert sparse_echelon(scaled) == echelon
        assert sparse_echelon(scaled, len(echelon)) == sparse_echelon(rows, len(echelon))
