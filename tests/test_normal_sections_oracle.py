"""Closed-form normal sections against the exact pairing kernel.

The private reference below is `normal_sections` as its exact fallback ran:
the pairing map from (R/I)_(r+t)^(r+1) to (R/I)_(r+t+1)^r on the quotient
monomial bases (`GradedIdeal.quotient_basis`), its entries read through
`GradedIdeal.normal_form`, cleared of denominators and ranked by
`sparse_row_rank`; the count is the dimension of its kernel.  The closed
form r dim I_(r+1+t) - (r+1) dim I_(r+t) + dim S_t must equal it at
t = 0 and t = -1 on every certified curve, special ones included.
"""

import random
from typing import Dict

import pytest

from hkcurves.acm_curve import ACMCurve, LinearMatrix, random_real_curve, random_sigma_curve
from hkcurves.cohomology import normal_sections
from hkcurves.exact_algebra.ideals import sparse_row_rank
from hkcurves.exact_algebra.linalg import ExactMatrix, random_invertible
from hkcurves.exact_algebra.polys import monomial_basis
from hkcurves.exact_algebra.scalars import GaussianRational

from suites import entry_forms, form, integer_row

_ZERO = GaussianRational(0)


def _ref_normal_sections(curve, twist):
    r, ideal = curve.r, curve.ideal
    m_src = r + twist
    src_cols, tgt_cols = ideal.quotient_basis(m_src), ideal.quotient_basis(m_src + 1)
    src_basis = monomial_basis(4, m_src)
    tgt_pos = {c: pos for pos, c in enumerate(tgt_cols)}
    n_src, n_tgt = len(src_cols), len(tgt_cols)
    # rows (j, target column), columns (i, source column)
    rows = [dict() for _ in range(r * n_tgt)]
    entries = entry_forms(curve.coeffs)
    for i in range(r + 1):
        for s_pos, s_col in enumerate(src_cols):
            col = i * n_src + s_pos
            for j in range(r):
                nf = ideal.normal_form(entries[i][j] * form(4, m_src, {src_basis[s_col]: 1}))
                for c, v in nf.items():
                    acc = rows[j * n_tgt + tgt_pos[c]]
                    acc[col] = acc.get(col, _ZERO) + v
    return (r + 1) * n_src - sparse_row_rank([integer_row(sorted(acc.items())) for acc in rows if acc])


def _check(curve):
    assert curve.certificate().ok
    for twist in (0, -1):
        assert normal_sections(curve, twist) == _ref_normal_sections(curve, twist), (curve.r, twist)


def _gauged(curve, seed):
    rng = random.Random(seed)
    return ACMCurve(curve.matrix.gauge(random_invertible(curve.r + 1, rng), random_invertible(curve.r, rng)))


def _matrix(r, entries: Dict[tuple, Dict[int, int]]):
    """The linear matrix with entries[(i, j)] = {variable: coefficient}."""
    coeffs = [[[_ZERO] * r for _ in range(r + 1)] for _ in range(4)]
    for (i, j), form in entries.items():
        for v, c in form.items():
            coeffs[v][i][j] = GaussianRational(c)
    return LinearMatrix(r, *(ExactMatrix(c) for c in coeffs))


def _form(terms):
    return form(4, 2, {mono: 1 for mono in terms})


@pytest.mark.parametrize("draw", [random_sigma_curve, random_real_curve], ids=["sigma", "real"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_random_curves_and_gauged_copies(draw, r):
    curve = draw(r, 4)
    _check(curve)
    _check(_gauged(curve, r))


def test_chain_of_three_lines():
    # rows (x0, 0), (-x1, x2), (0, -x3): the lines x0 = x1 = 0, x0 = x3 = 0
    # and x2 = x3 = 0, each meeting the next in one point
    curve = ACMCurve(_matrix(2, {(0, 0): {0: 1}, (1, 0): {1: -1}, (1, 1): {2: 1}, (2, 1): {3: -1}}))
    x1x3, x0x3, x0x2 = ((0, 1, 0, 1),), ((1, 0, 0, 1),), ((1, 0, 1, 0),)
    assert curve.minors == [_form(x1x3), _form(x0x3), _form(x0x2)]
    _check(curve)


def test_triple_line():
    # rows (x1, 0), (-x0, x1), (0, -x0): the minors x0^2, x0 x1, x1^2
    # generate (x0, x1)^2, the first-order neighbourhood of a line
    curve = ACMCurve(_matrix(2, {(0, 0): {1: 1}, (1, 0): {0: -1}, (1, 1): {1: 1}, (2, 1): {0: -1}}))
    assert curve.minors == [_form([(2, 0, 0, 0)]), _form([(1, 1, 0, 0)]), _form([(0, 2, 0, 0)])]
    _check(curve)


def _sparse_certified(r, seed, count):
    """`count` certified matrices whose entries are 0, x_a or x_a + x_b."""
    rng = random.Random(seed)
    curves = []
    while len(curves) < count:
        entries = {
            (i, j): {v: 1 for v in rng.sample(range(4), rng.randint(0, 2))}
            for i in range(r + 1)
            for j in range(r)
        }
        try:
            curve = ACMCurve(_matrix(r, entries))
        except ValueError:
            continue
        if curve.certificate().ok:
            curves.append(curve)
    return curves


@pytest.mark.parametrize("r, seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_sparse_special_matrices(r, seed):
    # 24 matrices in all, 4 per case
    for curve in _sparse_certified(r, 10 * r + seed, 4):
        _check(curve)
