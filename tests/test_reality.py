"""The antiholomorphic involution on points, forms, and matrix tuples."""

import random
from fractions import Fraction

from hkcurves.acm_curve import ACMCurve
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import monomial_basis
from hkcurves.exact_algebra.scalars import GaussianRational, integer_pairs
from hkcurves.reality import (
    _sigma_linear_coeffs,
    is_sigma_invariant_ideal,
    make_sigma_invariant_pencil,
    reality_conjugate,
    sigma_form,
)
from suites import form, identity_matrix, mat_add, mat_conj, mat_scale, poly_evaluate, poly_neg, zero_matrix

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def sigma_point(p):
    """Sigma on points, the reference for `sigma_form`."""
    x0, x1, x2, x3 = p
    return (-x1.conj(), x0.conj(), -x3.conj(), x2.conj())


def conjugation_matrices(r):
    """(g0, h0): real anti-diagonal sign matrices with g0 S h0 = T,
    g0 T h0 = -S, g0^2 = (-1)^r I and h0^2 = (-1)^(r-1) I, the reference
    for `reality_conjugate`."""
    g0 = ExactMatrix([[GaussianRational((-1) ** j) if i + j == r else ZERO for j in range(r + 1)] for i in range(r + 1)])
    h0 = ExactMatrix([[GaussianRational((-1) ** i) if i + j == r - 1 else ZERO for j in range(r)] for i in range(r)])
    return g0, h0


def _rand_point(rng):
    return tuple(
        GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )
        for _ in range(4)
    )


def _rand_matrix(rng, r):
    return ExactMatrix([[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(r)] for _ in range(r + 1)])


def _proportional(p, q):
    # projective equality: p = c*q for some nonzero scalar c
    for a, b in zip(p, q):
        if not b.is_zero():
            c = a / b
            break
    else:
        return all(a.is_zero() for a in p)
    return all(a == c * b for a, b in zip(p, q))


def test_sigma_point_squares_to_identity_projectively():
    rng = random.Random(3)
    for _ in range(30):
        p = _rand_point(rng)
        if all(x.is_zero() for x in p):
            continue
        assert _proportional(sigma_point(sigma_point(p)), p)


def test_sigma_point_has_no_fixed_points():
    rng = random.Random(4)
    for _ in range(30):
        p = _rand_point(rng)
        if all(x.is_zero() for x in p):
            continue
        assert not _proportional(sigma_point(p), p)


def test_sigma_form_pairing_with_points():
    # defining property: (sigma f)(p) = conj(f(sigma p))
    rng = random.Random(5)
    for d in (1, 2):
        coeffs = {
            m: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for m in monomial_basis(4, d)
        }
        f = form(4, d, {m: c for m, c in coeffs.items() if not c.is_zero()})
        sf = sigma_form(f)
        for _ in range(10):
            p = _rand_point(rng)
            assert poly_evaluate(sf, p) == poly_evaluate(f, sigma_point(p)).conj()


def test_sigma_form_applied_twice():
    rng = random.Random(6)
    for d in (1, 2, 3):
        coeffs = {
            m: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for m in monomial_basis(4, d)
        }
        f = form(4, d, {m: c for m, c in coeffs.items() if not c.is_zero()})
        twice = sigma_form(sigma_form(f))
        expected = f if d % 2 == 0 else poly_neg(f)
        assert twice == expected


def test_sigma_matrix_tuple_matches_form_action():
    # the coefficient rule of invariant pencils, applied to each entry of the
    # tuple (A1, .., A4), mirrors sigma on the linear form A1 x0 + ... + A4 x3
    rng = random.Random(7)
    r = 2
    A = [_rand_matrix(rng, r) for _ in range(4)]
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    # entries of the matrix linear form transform like degree-1 forms
    for i in range(r + 1):
        for j in range(r):
            c = tuple(A[k][i, j] for k in range(4))
            g = sigma_form(form(4, 1, {m: v for m, v in zip(units, c) if not v.is_zero()})).coeffs
            # the rule maps the (re, im) numerator pairs of c
            pairs, den = integer_pairs(c)
            assert [g.get(m, ZERO) for m in units] == [GaussianRational.over(a, b, den) for a, b in _sigma_linear_coeffs(pairs)]


def test_conjugation_matrices_are_real_signs():
    g0, h0 = conjugation_matrices(2)
    assert g0.shape == (3, 3) and h0.shape == (2, 2)
    prod_g = g0 @ mat_conj(g0)
    prod_h = h0 @ mat_conj(h0)
    # squares are scalar (plus or minus identity), the usual quaternionic sign
    eye3, eye2 = identity_matrix(3), identity_matrix(2)
    assert prod_g == eye3 or prod_g == mat_scale(eye3, -ONE)
    assert prod_h == eye2 or prod_h == mat_scale(eye2, -ONE)


def test_reality_conjugate_squares_to_minus_one():
    rng = random.Random(8)
    for r in (1, 2, 3):
        A3 = _rand_matrix(rng, r)
        assert reality_conjugate(reality_conjugate(A3)) == mat_scale(A3, -ONE)


def test_reality_conjugate_is_the_conjugated_product():
    # the signed index permutation against its definition conj(g0 A h0), on
    # entries with mixed denominators and on a product born in its integer form
    rng = random.Random(12)

    def entry():
        return GaussianRational(
            Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 5, 12])),
            Fraction(rng.randint(-7, 7), rng.choice([1, 4, 9])),
        )

    for r in range(1, 7):
        g0, h0 = conjugation_matrices(r)
        A = ExactMatrix([[entry() for _ in range(r)] for _ in range(r + 1)])
        product = A @ ExactMatrix([[entry() for _ in range(r)] for _ in range(r)])
        for B in (A, product, zero_matrix(r + 1, r)):
            got, want = reality_conjugate(B), mat_conj(g0 @ B @ h0)
            assert got == want
            assert got.data == want.data


def test_real_pair_detection():
    rng = random.Random(9)
    for r in (1, 2):
        A3 = _rand_matrix(rng, r)
        A4 = reality_conjugate(A3)
        assert A4 == reality_conjugate(A3)
        bump = [[ZERO] * r for _ in range(r + 1)]
        bump[0][0] = ONE
        assert mat_add(A4, ExactMatrix(bump)) != reality_conjugate(A3)


def test_make_sigma_invariant_pencil_yields_invariant_span():
    for seed in range(5):
        r = 2 + seed % 2
        mats = make_sigma_invariant_pencil(r, seed)
        curve = ACMCurve(mats)
        minors = [m for m in curve.minors if m.coeffs]
        assert is_sigma_invariant_ideal(minors, r)


def test_is_sigma_invariant_rejects_generic_span():
    rng = random.Random(10)
    while True:
        coeffs = {
            m: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for m in monomial_basis(4, 2)
        }
        f = form(4, 2, {m: c for m, c in coeffs.items() if not c.is_zero()})
        if f.coeffs and sigma_form(f) != f and sigma_form(f) != poly_neg(f):
            break
    assert not is_sigma_invariant_ideal([f], 2)
