"""Equality of the Gaussian-integer `HomogPoly` and Laplace kernel with the Q(i) ones.

The private reference below is the polynomial arithmetic as it ran on a
{monomial: GaussianRational} dict, and the signed maximal minors as they
ran, with frozenset row keys, on the `entry_forms` of the coefficient
matrices.  The kernel reads those matrices' integer forms (`form_pairs`),
and must give equal forms.
"""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest

from hkcurves.pencil import canonical_pair
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra import polys
from hkcurves.exact_algebra.polys import (
    HomogPoly,
    column_combinations,
    form_pairs,
    laplace,
    monomial_basis,
    signed_minor_table,
    signed_minors,
)
from hkcurves.exact_algebra.scalars import GaussianRational, random_gaussian_rows

from suites import (
    entry_forms,
    form,
    mat_is_zero,
    pencil_minors,
    poly_add,
    poly_evaluate,
    poly_neg,
    poly_scale,
    poly_sub,
    zero_matrix,
)

_ZERO = GaussianRational(0, 0)
_ONE = GaussianRational(1, 0)
_I = GaussianRational(0, 1)


class _RefPoly:
    """A form as a {monomial: GaussianRational} dict without zero values."""

    def __init__(self, num_vars, degree, coeffs):
        self.num_vars, self.degree = num_vars, degree
        self.coeffs = {m: c for m, c in coeffs.items() if not c.is_zero()}

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        c = dict(self.coeffs)
        for m, v in other.coeffs.items():
            c[m] = c.get(m, _ZERO) + v
        return _RefPoly(self.num_vars, self.degree, c)

    def __neg__(self):
        return _RefPoly(self.num_vars, self.degree, {m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return _RefPoly(self.num_vars, self.degree, {m: v * c for m, v in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, _ZERO) + c1 * c2
        return _RefPoly(self.num_vars, self.degree + other.degree, out)

    def mul_monomial(self, mono):
        shift = {tuple(a + b for a, b in zip(m, mono)): v for m, v in self.coeffs.items()}
        return _RefPoly(self.num_vars, self.degree + sum(mono), shift)

    def evaluate(self, point):
        total = _ZERO
        for mono, c in self.coeffs.items():
            term = c
            for v, e in zip(point, mono):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total


def _ref(poly):
    return _RefPoly(poly.num_vars, poly.degree, poly.coeffs)


def assert_same(poly, ref):
    assert isinstance(poly, HomogPoly)
    assert (poly.num_vars, poly.degree) == (ref.num_vars, ref.degree)
    assert poly.coeffs == ref.coeffs


def _ref_signed_maximal_minors(entries, num_vars=4):
    nrows, ncols = len(entries), len(entries[0])
    dets = {frozenset(): _RefPoly(num_vars, 0, {(0,) * num_vars: _ONE})}
    for col in range(ncols):
        nxt = {}
        for rowset in itertools.combinations(range(nrows), col + 1):
            acc = _RefPoly(num_vars, col + 1, {})
            for pos, i in enumerate(rowset):
                prev = dets[frozenset(rowset) - {i}]
                if prev.is_zero():
                    continue
                term = prev * entries[i][col]
                acc = acc + (term if (pos + col) % 2 == 0 else -term)
            nxt[frozenset(rowset)] = acc
        dets = nxt
    full = frozenset(range(nrows))
    return [dets[full - {skip}] if skip % 2 == 0 else -dets[full - {skip}] for skip in range(nrows)]


def _rational(rng, span=9, den=6):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def _random_form(rng, degree):
    # about a third of the monomials absent, denominators up to 6
    basis = monomial_basis(4, degree)
    return form(4, degree, {m: _rational(rng) for m in basis if rng.random() < 0.7})


def _forms():
    rng = random.Random(9)
    return [_random_form(rng, d) for d in (0, 1, 1, 2, 2, 3) for _ in range(3)]


def test_arithmetic_matches_reference():
    rng = random.Random(10)
    forms = _forms()
    assert any(f.den > 1 for f in forms)
    for f in forms:
        ref = _ref(f)
        assert_same(poly_neg(f), -ref)
        c = _rational(rng)
        assert_same(poly_scale(f, c), ref.scale(c))
        assert_same(poly_scale(f, _ZERO), ref.scale(_ZERO))
        mono = (rng.randint(0, 2), 0, rng.randint(0, 2), 1)
        assert_same(f * form(4, sum(mono), {mono: 1}), ref.mul_monomial(mono))
        point = tuple(_rational(rng, 4, 3) for _ in range(4))
        assert poly_evaluate(f, point) == ref.evaluate(point)
        for g in forms:
            assert_same(f * g, ref * _ref(g))
            if g.degree == f.degree:
                assert_same(poly_add(f, g), ref + _ref(g))
                assert_same(poly_sub(f, g), ref - _ref(g))


def test_equal_forms_compare_and_hash_equal():
    x = form(4, 1, {(1, 0, 0, 0): _ONE})
    half = form(4, 1, {(1, 0, 0, 0): GaussianRational(Fraction(1, 2))})
    third = form(4, 0, {(0,) * 4: GaussianRational(Fraction(1, 3), Fraction(1, 3))})
    three = form(4, 0, {(0,) * 4: GaussianRational(Fraction(3, 2), Fraction(-3, 2))})
    pairs = [
        (poly_add(half, half), x),
        (poly_scale(x, GaussianRational(Fraction(1, 2))), half),
        ((x * third) * three, x),  # (1 + i)/3 * 3(1 - i)/2 = 1
        (poly_sub(x, x), form(4, 1, {})),
        (poly_neg(poly_neg(half)), half),
    ]
    for got, want in pairs:
        assert got == want
        assert hash(got) == hash(want)
        assert (got.terms, got.den) == (want.terms, want.den)
    assert poly_sub(x, x).den == 1
    assert half != x and half.den == 2
    # the cached coefficient view cannot drift from the integer terms
    with pytest.raises(TypeError):
        half.coeffs[(1, 0, 0, 0)] = _ONE


def _pairs(mats):
    return form_pairs([M.integer_form for M in mats])


def _ref_minors(mats):
    """The reference minors of sum_v A_v x_v, from its `entry_forms`."""
    return _ref_signed_maximal_minors([[_ref(e) for e in row] for row in entry_forms(mats)], len(mats))


def _random_matrices(rng, r, nvars=4, zero_vars=(), density=1.0, cols=None):
    """nvars coefficient matrices (r+1) x cols (cols = r by default): each
    entry its own denominators, density its share of nonzero entries, and
    the matrices of zero_vars zero."""
    def entry(v):
        return _rational(rng) if v not in zero_vars and rng.random() < density else _ZERO

    return [ExactMatrix([[entry(v) for _ in range(cols or r)] for _ in range(r + 1)]) for v in range(nvars)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_minors_and_cofactors_match_reference(r):
    rng = random.Random(20 + r)
    # r = 5, 6 in two variables keep the reference's products small
    nvars = 4 if r <= 4 else 2
    gauss = [
        [ExactMatrix(random_gaussian_rows(rng, r + 1, r, 3)) for _ in range(nvars)],
    ]
    if r <= 4:
        den = GaussianRational(Fraction(3, 2), Fraction(1, 5))
        gauss.append([ExactMatrix([[v / den for v in row] for row in random_gaussian_rows(rng, r + 1, r, 3)])
                      for _ in range(4)])
    # the signed maximal minors are the cofactors along a column appended
    # to the matrix, so the name covers them
    for mats in gauss:
        for got, want in zip(signed_minors(*_pairs(mats)), _ref_minors(mats), strict=True):
            assert_same(got, want)


def _check_minors_and_cofactors(mats):
    X, den = _pairs(mats)
    minors = signed_minors(X, den)
    for got, want in zip(minors, _ref_minors(mats), strict=True):
        assert_same(got, want)
    combined = column_combinations(minors, X, den)
    for j, got in enumerate(combined):
        want = _RefPoly(4, mats[0].cols + 1, {})
        for m, row in zip(minors, entry_forms(mats)):
            want = want + _ref(m) * _ref(row[j])
        assert_same(got, want)
        assert want.is_zero()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_kernel_takes_a_denominator_per_entry(r):
    rng = random.Random(40 + r)
    mats = _random_matrices(rng, r)
    assert len({e.den for row in entry_forms(mats) for e in row}) > 1
    _check_minors_and_cofactors(mats)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_kernel_takes_zero_coefficients_and_zero_variables(r):
    rng = random.Random(50 + r)
    mats = _random_matrices(rng, r, zero_vars=(2,), density=0.5)
    mats = [ExactMatrix([[_ZERO if (i, j) == (0, 0) else z for j, z in enumerate(row)] for i, row in enumerate(M.data)])
            for M in mats]
    assert entry_forms(mats)[0][0].is_zero() and mat_is_zero(mats[2])
    _check_minors_and_cofactors(mats)
    # a zero column makes every minor zero, of degree r
    zeroed = [ExactMatrix([[_ZERO if j == 0 else z for j, z in enumerate(row)] for row in M.data]) for M in mats]
    assert signed_minors(*_pairs(zeroed)) == [form(4, r, {})] * (r + 1)


def test_kernel_at_r_1_is_the_column_up_to_sign():
    rng = random.Random(60)
    for _ in range(5):
        mats = _random_matrices(rng, 1, density=0.7)
        [a], [b] = entry_forms(mats)
        assert signed_minors(*_pairs(mats)) == [b, poly_neg(a)]
        _check_minors_and_cofactors(mats)
    # the table is of the maximal minors of an (r+1) x r matrix only
    with pytest.raises(ValueError, match="expected"):
        signed_minor_table(_pairs(_random_matrices(rng, 1, cols=2))[0])


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_minors_read_every_integer_form(r):
    rng = random.Random(90 + r)

    def matrix(density):
        return ExactMatrix([[_rational(rng) if rng.random() < density else _ZERO for _ in range(r)] for _ in range(r + 1)])

    A, B, C = matrix(1.0), matrix(0.6), matrix(0.3)
    # a product holds an unreduced denominator D_L * D_R; zero matrices hold D = 1
    product = A @ ExactMatrix([[_rational(rng, 4, 5) for _ in range(r)] for _ in range(r)])
    zero = zero_matrix(r + 1, r)
    assert len({M.integer_form[1] for M in (A, B, C, product, zero)}) > 2
    for mats in ((A, B, C, product), (zero, B, zero, C), (zero,) * 4, (A, product), (zero, zero), (C,)):
        for got, want in zip(signed_minors(*_pairs(mats)), _ref_minors(mats), strict=True):
            assert_same(got, want)
    # the pencil minors: coefficients of the reference minors of x0 A1 + x1 A2
    for A1, A2 in ((A, B), (product, C), (B, zero)):
        minors = _ref_minors((A1, A2))
        want = [[m.coeffs.get((r - k, k), _ZERO) * (-1) ** i for k in range(r + 1)] for i, m in enumerate(minors)]
        got = pencil_minors(A1, A2)
        assert [list(p.coeffs) + [_ZERO] * (r + 1 - len(p.coeffs)) for p in got] == want


def _ref_det(rows):
    """Cofactor expansion along the first row on (re, im) Fraction pairs."""
    if not rows:
        return (Fraction(1), Fraction(0))
    re = im = Fraction(0)
    for j, (a, b) in enumerate(rows[0]):
        c, d = _ref_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        sign = -1 if j % 2 else 1
        re += sign * (a * c - b * d)
        im += sign * (a * d + b * c)
    return re, im


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_cofactor_expansion(n):
    rng = random.Random(70 + n)
    drawn = [[[_rational(rng, 5, 4) if rng.random() < 0.8 else _ZERO for _ in range(n)] for _ in range(n)]
             for _ in range(3)]
    full = drawn[0]
    c, d = _rational(rng), _rational(rng)
    planted = [[[_ZERO] * n] + full[1:]]  # a zero row
    if n > 1:  # the last row a combination of two others
        planted.append(full[:-1] + [[c * x + d * y for x, y in zip(full[0], full[n - 2])]])
    for rows in drawn + planted:
        got = ExactMatrix(rows).det()
        assert (got.re, got.im) == _ref_det([[(z.re, z.im) for z in row] for row in rows])
    assert all(ExactMatrix(rows).det().is_zero() for rows in planted)
    assert not all(ExactMatrix(rows).det().is_zero() for rows in drawn)
    assert ExactMatrix([]).det() == _ONE


def test_linear_combination_matches_reference():
    rng = random.Random(80)
    for degree in (0, 1, 2, 3):
        forms = [_random_form(rng, degree) for _ in range(4)]
        # a column of four linear forms, each entry its own denominators
        mats = _random_matrices(rng, 3, zero_vars=(3,), density=0.7, cols=1)
        want = _RefPoly(4, degree + 1, {})
        for f, [g] in zip(forms, entry_forms(mats)):
            want = want + _ref(f) * _ref(g)
        assert not want.is_zero()
        (got,) = column_combinations(forms, *_pairs(mats))
        assert_same(got, want)


# ---------------------------------------------------------------------------
# the array kernel on both sides of its int64 bound: directly in int64 below
# it, modulo word-size moduli and lifted by `modp.crt_lift` above it

_INT64_MAX = 2**63 - 1


@pytest.fixture
def contracted_dtypes(monkeypatch):
    """The dtypes of every array `polys._contract` reads or returns in the test."""
    seen = set()
    contract = polys._contract

    def spy(level, child, spots, factors, plan):
        out = contract(level, child, spots, factors, plan)
        seen.update((level.dtype, factors.dtype, out.dtype))
        return out

    monkeypatch.setattr(polys, "_contract", spy)
    return seen


def _bound(mats):
    """prod_i max(R_i, 1), R_i the l1 norm of row i of sum_v A_v x_v over lcm(D_v)."""
    forms = [M.integer_form for M in mats]
    den = lcm(*(d for _, d in forms))
    norms = [
        sum((abs(a) + abs(b)) * (den // d) for rows, d in forms for a, b in rows[i])
        for i in range(mats[0].rows)
    ]
    return prod(max(x, 1) for x in norms)


def _scaled(mats, row, s):
    return [ExactMatrix([[z * s if i == row else z for z in M.data[i]] for i in range(M.rows)]) for M in mats]


def _kernel_minors(mats):
    """The minors read off the integer forms, and the route taken."""
    X, den = _pairs(mats)
    return signed_minors(X, den), laplace(X).dtype


def _matrices(rng, r, nvars, small=False, zero_row=None, zero_vars=()):
    def entry():
        if small:
            return GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1)) if rng.random() < 0.6 else _ZERO
        return _rational(rng) if rng.random() < 0.8 else _ZERO

    return [
        ExactMatrix([[_ZERO if i == zero_row or v in zero_vars else entry() for _ in range(r)] for i in range(r + 1)])
        for v in range(nvars)
    ]


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("nvars", [2, 4])
def test_minors_match_reference_on_both_sides_of_the_bound(r, nvars, contracted_dtypes):
    rng = random.Random(100 * nvars + r)
    # at r >= 7 in four variables a zero variable keeps the reference's products small
    zero_vars = (2,) if nvars == 4 and r >= 7 else ()
    # small Gaussian integers stay on the int64 side at every r here
    small = _matrices(rng, r, nvars, small=True, zero_vars=zero_vars)
    # row 1, which the scaling below scales, is not zero
    small[0] = ExactMatrix([[_ONE + _I if (i, j) == (1, 0) else z for j, z in enumerate(row)]
                            for i, row in enumerate(small[0].data)])
    # mixed denominators and a zero row
    mixed = _matrices(rng, r, nvars, zero_row=r // 2 if r > 1 else None, zero_vars=zero_vars)
    assert len({q.denominator for M in mixed for row in M.data for z in row for q in (z.re, z.im)}) > 1
    # the canonical gauge (S, T, A3, A4): each column of S and T has one
    # nonzero row, so most products of a depth are zero, on either side
    gauged = [*canonical_pair(r), *small[2:]] if nvars == 4 else []
    for mats in (small, mixed, gauged) if r <= 6 else (small, mixed):
        if not mats:
            continue
        got, route = _kernel_minors(mats)
        for g, w in zip(got, _ref_minors(mats), strict=True):
            assert_same(g, w)
        assert route == (np.int64 if _bound(mats) <= _INT64_MAX else object)
    # scaling row 1 by s multiplies every minor but the one without row 1 by s;
    # the largest s with B s <= 2^63 - 1 stays on int64, the next one does not
    for mats in (small, gauged) if gauged else (small,):
        bound = _bound(mats)
        assert bound <= _INT64_MAX
        plain, _ = _kernel_minors(mats)
        top = _INT64_MAX // bound
        for s, side in ((top, np.int64), (top + 1, object)):
            scaled = _scaled(mats, 1, s)
            assert (_bound(scaled) <= _INT64_MAX) == (side is np.int64)
            got, route = _kernel_minors(scaled)
            assert route == side
            assert got == [m if k == 1 else poly_scale(m, GaussianRational(s)) for k, m in enumerate(plain)]
    # the lifted side contracts residues in int64 as well
    if r > 1:
        assert contracted_dtypes == {np.dtype(np.int64)}


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_det_matches_cofactor_expansion_on_both_sides_of_the_bound(n, contracted_dtypes):
    rng = random.Random(110 + n)
    rows = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    rows[0][0] = GaussianRational(1, 1)
    bound = _bound([ExactMatrix(rows)])
    top = _INT64_MAX // bound
    for s, side in ((top, np.int64), (top + 1, object)):
        scaled = [[z * s for z in row] if i == 0 else row for i, row in enumerate(rows)]
        M = ExactMatrix(scaled)
        assert laplace(form_pairs([M.integer_form])[0]).dtype == side
        got = M.det()
        assert (got.re, got.im) == _ref_det([[(z.re, z.im) for z in row] for row in scaled])
    # a diagonal matrix, past the bound from n = 2 on: each column has a
    # single nonzero row, so each sub-determinant has one nonzero term at most
    diagonal = [[GaussianRational(2**40 + i, i) if i == j else _ZERO for j in range(n)] for i in range(n)]
    M = ExactMatrix(diagonal)
    assert laplace(form_pairs([M.integer_form])[0]).dtype == (object if n > 1 else np.int64)
    got = M.det()
    assert (got.re, got.im) == _ref_det([[(z.re, z.im) for z in row] for row in diagonal])
    if n > 1:
        assert contracted_dtypes == {np.dtype(np.int64)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_at_its_bound_lifts_to_both_signs(n, contracted_dtypes):
    # positive integers on the diagonal: each row's l1 norm is its entry, so
    # the det is the bound B itself, past 2^63 - 1; one negated entry gives -B
    rng = random.Random(150 + n)
    entries = [2**40 + rng.randint(1, 2**20) for _ in range(n - 1)]
    entries.append(2**64 // prod(entries) + 1)
    bound = prod(entries)
    assert bound > _INT64_MAX
    for sign in (1, -1):
        diagonal = [[GaussianRational(sign * x if i == 0 else x) if i == j else _ZERO for j in range(n)]
                    for i, x in enumerate(entries)]
        M = ExactMatrix(diagonal)
        assert _bound([M]) == bound
        assert M.det() == GaussianRational(sign * bound)
    assert contracted_dtypes == {np.dtype(np.int64)}


def test_chunked_contractions_and_per_call_plans_give_the_same_minors(monkeypatch):
    # one subset per product and no kept plans: the route of large r
    rng = random.Random(120)
    cases = [_matrices(rng, 5, 2), _matrices(rng, 3, 4, zero_row=1), _matrices(rng, 2, 4, small=True)]
    want = [_kernel_minors(mats) for mats in cases]
    monkeypatch.setattr(polys, "_GATHER", 1)
    monkeypatch.setattr(polys, "_KEPT_SUBSETS", 0)
    assert [_kernel_minors(mats) for mats in cases] == want


def test_minors_past_the_kept_plans_are_a_syzygy(contracted_dtypes):
    # r = 13: 14 rows have more than _KEPT_SUBSETS subsets of size 7, so the
    # plans are built for the call, and B is past 2^63 - 1
    rng = random.Random(140)
    mats = _matrices(rng, 13, 2)
    assert polys._plans(14) is not polys._plans(14) and _bound(mats) > _INT64_MAX
    X, den = form_pairs([M.integer_form for M in mats])
    minors = signed_minors(X, den)
    assert any(not m.is_zero() for m in minors)
    assert all(s.is_zero() for s in column_combinations(minors, X, den))
    assert contracted_dtypes == {np.dtype(np.int64)}


def test_column_combinations_read_their_bound_off_the_forms(contracted_dtypes):
    # forms far past the minors' bound, here with 2^70 coefficients, take
    # the lifted route and still get the exact sums
    rng = random.Random(130)
    mats = _matrices(rng, 3, 4, small=True)
    entries = entry_forms(mats)
    big = [poly_scale(_random_form(rng, 3), GaussianRational(2**70, 1)) for _ in range(4)]
    got = column_combinations(big, *form_pairs([M.integer_form for M in mats]))
    for j, g in enumerate(got):
        want = _RefPoly(4, 4, {})
        for f, row in zip(big, entries):
            want = want + _ref(f) * _ref(row[j])
        assert_same(g, want)
    assert contracted_dtypes == {np.dtype(np.int64)}


def test_modular_pass_refuses_sums_past_int64():
    # 2 R n products per value mod m < 2^26 fit int64 only while R n <= 2^10:
    # 257 forms in four variables past the bound are refused, not wrapped
    forms = [form(4, 0, {(0, 0, 0, 0): GaussianRational(2**70)})] * 257
    X = np.ones((1, 257, 4, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        column_combinations(forms, X, 1)
    # 256 of them fit, and sum exactly
    (got,) = column_combinations(forms[:256], X[:, :256], 1)
    assert got.terms == {m: (256 * 2**70, 256 * 2**70) for m in monomial_basis(4, 1)}
