"""Homogeneous and univariate polynomial layers, graded matrices."""

import copy
import pickle
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hkcurves.exact_algebra.ideals import GradedIdeal
from hkcurves.exact_algebra.polys import (
    UniPoly,
    binary_common_zero,
    monomial_basis,
    monomial_count,
    monomial_index,
    uni_gcd,
    uni_interpolate,
)
from hkcurves.exact_algebra.scalars import GaussianRational

from suites import form, graded_matrix, linear_form, mat_add, poly_add, poly_evaluate, poly_scale

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def test_monomial_counts():
    for n in (2, 3, 4):
        for d in range(6):
            assert monomial_count(n, d) == comb(d + n - 1, n - 1)
            basis = monomial_basis(n, d)
            assert len(basis) == monomial_count(n, d)
            assert all(sum(m) == d and len(m) == n for m in basis)
            index = monomial_index(n, d)
            assert [index[m] for m in basis] == list(range(len(basis)))


def test_homog_add_requires_same_degree():
    f = form(4, 1, {(1, 0, 0, 0): ONE})
    g = form(4, 2, {(2, 0, 0, 0): ONE})
    with pytest.raises(ValueError):
        poly_add(f, g)


def test_homog_ring_identities():
    rng = random.Random(2)

    def rand_poly(d):
        coeffs = {
            m: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for m in monomial_basis(4, d)
        }
        return form(4, d, {m: c for m, c in coeffs.items() if not c.is_zero()})

    for _ in range(15):
        f = rand_poly(1)
        g = rand_poly(2)
        h = rand_poly(1)
        assert f * g == g * f
        assert f * poly_add(g, h * h) == poly_add(f * g, f * (h * h))
        assert (f * g).degree == 3


def test_evaluate_agrees_with_coefficients():
    f = form(4, 2, {(1, 1, 0, 0): GaussianRational(3, 0)})
    pt = [GaussianRational(2, 0), GaussianRational(0, 1), ONE, ONE]
    assert poly_evaluate(f, pt) == GaussianRational(0, 6)


def test_graded_matrix_multiplication_by_variable():
    # multiplication by x0 from degree 1 to degree 2 is injective: rank 4
    x0 = form(4, 1, {(1, 0, 0, 0): ONE})
    gm = graded_matrix([[x0]], 1, 4)
    assert gm.shape == (monomial_count(4, 2), monomial_count(4, 1))
    assert gm.rank() == 4


def test_graded_matrix_respects_linearity():
    rng = random.Random(4)
    basis = monomial_basis(4, 1)
    f = form(4, 1, {basis[0]: GaussianRational(2, 1)})
    g = form(4, 1, {basis[2]: GaussianRational(0, -1)})
    mf = graded_matrix([[f]], 2, 4)
    mg = graded_matrix([[g]], 2, 4)
    mfg = graded_matrix([[poly_add(f, g)]], 2, 4)
    assert mfg == mat_add(mf, mg)


def test_graded_ideal_dimension_of_principal_ideal():
    # (x0): dimension in degree k is monomial_count(4, k-1)
    x0 = form(4, 1, {(1, 0, 0, 0): ONE})
    ideal = GradedIdeal([x0])
    for k in range(1, 5):
        assert ideal.dimension(k) == monomial_count(4, k - 1)


def test_graded_ideal_normal_form_is_projection():
    x0 = form(4, 1, {(1, 0, 0, 0): ONE})
    ideal = GradedIdeal([x0])
    # x0*x1 reduces to zero, x1*x2 survives
    inside = form(4, 2, {(1, 1, 0, 0): ONE})
    outside = form(4, 2, {(0, 1, 1, 0): ONE})
    assert ideal.normal_form(inside) == {}
    nf = ideal.normal_form(outside)
    assert len(nf) == 1 and list(nf.values())[0] == ONE


def test_graded_ideal_reads_its_variable_count():
    # the count comes from the generators, and mixed counts are refused as
    # mixed degrees are
    x0 = form(4, 1, {(1, 0, 0, 0): ONE})
    y0 = form(2, 1, {(1, 0): ONE})
    assert GradedIdeal([x0]).num_vars == 4
    assert GradedIdeal([y0]).dimension(2) == 2
    with pytest.raises(ValueError, match="one variable count"):
        GradedIdeal([x0, y0])


def test_unipoly_divmod_round_trip():
    rng = random.Random(6)
    for _ in range(25):
        a = UniPoly([rng.randint(-4, 4) for _ in range(6)])
        b = UniPoly([rng.randint(-4, 4) for _ in range(3)])
        if b.is_zero():
            continue
        q, rem = a.divmod(b)
        assert q * b + rem == a
        assert rem.degree < b.degree or rem.is_zero()


def test_uni_gcd_of_common_factor():
    f = UniPoly([1, 1])  # x + 1
    g = UniPoly([-1, 1])  # x - 1
    a = f * g
    b = f * UniPoly([2, 1])
    got = uni_gcd([a, b])
    assert got == f.monic()


def test_uni_gcd_coprime_is_constant():
    got = uni_gcd([UniPoly([1, 1]), UniPoly([2, 1])])
    assert got.is_constant() and not got.is_zero()


def test_uni_gcd_single_argument_family():
    with pytest.raises(TypeError):
        uni_gcd(UniPoly([1, 1]), UniPoly([1]))  # two positional args is an error


def _binary(*rows):
    """Binary forms with integer coefficients as (re, im) rows."""
    return [[(c, 0) for c in row] for row in rows]


# (q t - 1)^2 and t (t - 1), each times s, t, s + t and s - t: cubics that
# share a double zero at [1 : 1/q], and two simple zeros
_Q = 1000003
_DOUBLE = _binary(
    [1, -2 * _Q, _Q**2, 0],
    [0, 1, -2 * _Q, _Q**2],
    [1, 1 - 2 * _Q, _Q**2 - 2 * _Q, _Q**2],
    [1, -1 - 2 * _Q, _Q**2 + 2 * _Q, -(_Q**2)],
)
_TWO_POINTS = _binary([0, -1, 1, 0], [0, 0, -1, 1], [0, -1, 0, 1], [0, -1, 2, -1])


def test_binary_common_zero_at_the_two_coordinate_points():
    assert binary_common_zero(_binary([0, 0], [0, 0])) == ((ONE, ZERO), None)
    # s and 2i*s vanish at [0 : 1], with every t^1 coefficient zero
    assert binary_common_zero([[(1, 0), (0, 0)], [(0, 2), (0, 0)]]) == ((ZERO, ONE), None)


def test_binary_common_zero_of_a_repeated_root_is_the_mean():
    # numpy splits the double root 1/q, and no denominator up to 10^6
    # rationalizes it; the mean of the gcd's roots is exact
    witness, g = binary_common_zero(_DOUBLE)
    root = GaussianRational(Fraction(1, _Q))
    assert g == UniPoly([root * root, -(root + root), ONE])
    assert witness == (ONE, root)
    numeric = [
        GaussianRational.from_complex(complex(z), limit)
        for z in np.roots([complex(c) for c in reversed(g.coeffs)])
        for limit in (1, 12, 10**6)
    ]
    assert root not in numeric


def test_binary_common_zero_takes_the_first_numeric_root():
    witness, g = binary_common_zero(_TWO_POINTS)
    assert g == UniPoly([0, -1, 1])
    first = np.roots([1, -1, 0])[0]
    assert witness == (ONE, GaussianRational(round(first.real)))
    assert witness == (ONE, ONE)


def test_binary_common_zero_ignores_scale_and_sign():
    for forms in (_DOUBLE, _TWO_POINTS, [[(1, 0), (0, 0)], [(0, 2), (0, 0)]]):
        units = [(-1, 0), (2, 3), (0, -5), (7, 0)]
        scaled = [[(a * x - b * y, a * y + b * x) for a, b in f] for f, (x, y) in zip(forms, units)]
        assert binary_common_zero(scaled) == binary_common_zero(forms)


def test_binary_common_zero_raises_on_a_constant_gcd():
    # s and t share no zero, so a caller's rank never sends them here
    with pytest.raises(ArithmeticError, match="exact gcd lacks"):
        binary_common_zero(_binary([1, 0], [0, 1]))


def test_uni_interpolate_recovers_polynomial():
    target = UniPoly([3, -2, 1])
    pts = [GaussianRational(k, 0) for k in range(3)]
    vals = [target.evaluate(p) for p in pts]
    assert uni_interpolate(pts, vals) == target


def test_copy_and_pickle_round_trips():
    x, y, z = (linear_form([ONE if j == i else ZERO for j in range(3)]) for i in range(3))
    half = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    forms = [poly_add(x * y, poly_scale(z * z, half)), form(3, 2, {}), x]
    unis = [UniPoly([half, ZERO, ONE]), UniPoly([])]
    for value in forms + unis:
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value
            assert hash(clone) == hash(value)
