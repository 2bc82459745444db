"""Identity of ExactMatrix's exact methods against dense Bareiss elimination.

The private reference below is the fraction-free Bareiss eliminator on
dense Gaussian-integer pairs that `rank`, `det`, `kernel_basis` and
`inverse` ran on before they read the sparse echelon and the Laplace pass.
The library must return equal ranks and determinants, the identical kernel
basis (both routes give the canonical one: 1 at a free column, 0 at the
others) and the identical inverse, and raise where the reference raises.

Products, `==` and `hash` read the matrix's one integer form.  They are
checked against entry-wise Fraction-pair products and entry-wise equality,
the inverse, born in its form, against Gauss-Jordan on Fraction pairs, and
the pencil stabilizer against its rows cleared one by one with
`integer_row`, the route it took before it read the form.

The inverse's integer form, from fraction-free Gauss-Jordan on packed rows,
must be identical to the form of `suites.echelon_inverse`, the reduced
echelon of [M | I] that `inverse` ran on before: the lcm of the entries'
denominators and the numerators over it.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from hkcurves.exact_algebra.ideals import certified_rank
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.scalars import GaussianRational
from hkcurves.pencil import _minor_table, canonical_pair, kronecker_reduce, pair_stabilizer_dimension, random_injective_pencil

from suites import echelon_inverse, identity_matrix, integer_row, mat_is_zero, mat_scale, zero_matrix

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def _ref_int_rows(rows):
    out, scales = [], []
    for row in rows:
        den = 1
        for z in row:
            for q in (z.re, z.im):
                den = den * q.denominator // gcd(den, q.denominator)
        out.append(
            [(z.re.numerator * (den // z.re.denominator), z.im.numerator * (den // z.im.denominator)) for z in row]
        )
        scales.append(den)
    return out, scales


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    re, rr = divmod(x[0] * y[0] + x[1] * y[1], n)
    im, ri = divmod(x[1] * y[0] - x[0] * y[1], n)
    if rr or ri:
        raise ArithmeticError("inexact Bareiss division")
    return (re, im)


def _ref_bareiss(rows, ncols):
    """In-place fraction-free row echelon: (rank, pivot columns, swap sign)."""
    nrows, rank, sign, prev, pivots = len(rows), 0, 1, (1, 0), []
    for col in range(ncols):
        if rank >= nrows:
            break
        p = next((i for i in range(rank, nrows) if rows[i][col] != (0, 0)), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
            sign = -sign
        piv = rows[rank][col]
        for i in range(rank + 1, nrows):
            ric = rows[i][col]
            for j in range(col + 1, ncols):
                a, b = _gi_mul(piv, rows[i][j]), _gi_mul(ric, rows[rank][j])
                rows[i][j] = _gi_div((a[0] - b[0], a[1] - b[1]), prev)
            rows[i][col] = (0, 0)
        prev = piv
        pivots.append(col)
        rank += 1
    return rank, pivots, sign


def _gauss(pair):
    return GaussianRational(Fraction(pair[0]), Fraction(pair[1]))


def _ref_rank(m):
    rows, _ = _ref_int_rows(m.data)
    return _ref_bareiss(rows, m.cols)[0]


def _ref_det(m):
    n = m.rows
    if n == 0:
        return _ONE
    rows, scales = _ref_int_rows(m.data)
    rank, _, sign = _ref_bareiss(rows, n)
    if rank < n:
        return _ZERO
    denom = 1
    for s in scales:
        denom *= s
    return _gauss(rows[n - 1][n - 1]) * sign / denom


def _from_columns(columns, rows):
    return ExactMatrix([[col[i] for col in columns] for i in range(rows)], cols=len(columns))


def _augmented(m):
    """The rows of [M | I]."""
    return [list(row) + [_ONE if i == j else _ZERO for j in range(m.rows)] for i, row in enumerate(m.data)]


def _ref_kernel_basis(m):
    n = m.cols
    rows, _ = _ref_int_rows(m.data)
    rank, pivots, _ = _ref_bareiss(rows, n)
    g_rows = [[_gauss(x) for x in rows[i]] for i in range(rank)]
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [_ZERO] * n
        v[f] = _ONE
        for i in range(rank - 1, -1, -1):
            pc, row = pivots[i], g_rows[i]
            acc = _ZERO
            for j in range(pc + 1, n):
                acc = acc + row[j] * v[j]
            v[pc] = -acc / row[pc]
        basis.append(v)
    return _from_columns(basis, n)


def _ref_inverse(m):
    n = m.rows
    rows, _ = _ref_int_rows(_augmented(m))
    _, pivots, _ = _ref_bareiss(rows, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    g_rows = [[_gauss(x) for x in row] for row in rows]
    cols = []
    for c in range(n, 2 * n):
        x = [_ZERO] * n
        for i in range(n - 1, -1, -1):
            acc = g_rows[i][c]
            for j in range(i + 1, n):
                acc = acc - g_rows[i][j] * x[j]
            x[i] = acc / g_rows[i][i]
        cols.append(x)
    return _from_columns(cols, n)


def _entry(rng):
    return GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    )


def _matrix(seed, rows, cols, rank=None, zero_rows=(), zero_cols=()):
    """Seeded fractional Gaussian matrix; with `rank`, every row is a
    combination of `rank` drawn rows with small Gaussian-integer weights."""
    rng = random.Random(seed)
    data = [[_entry(rng) for _ in range(cols)] for _ in range(rows if rank is None else rank)]
    if rank is not None:
        weights = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rank)] for _ in range(rows)]
        data = [
            [sum((w * data[k][j] for k, w in enumerate(ws)), _ZERO) for j in range(cols)] for ws in weights
        ]
    data = [
        [_ZERO if i in zero_rows or j in zero_cols else z for j, z in enumerate(row)] for i, row in enumerate(data)
    ]
    return ExactMatrix(data, cols=cols)


CASES = {
    "0x3": dict(rows=0, cols=3),
    "3x0": dict(rows=3, cols=0),
    "0x0": dict(rows=0, cols=0),
    "1x1": dict(rows=1, cols=1),
    "1x1-zero": dict(rows=1, cols=1, zero_rows=(0,)),
    "4x6": dict(rows=4, cols=6),
    "4x6-rank2": dict(rows=4, cols=6, rank=2),
    "4x6-zero-col": dict(rows=4, cols=6, zero_cols=(0, 3)),
    "6x4": dict(rows=6, cols=4),
    "6x4-rank3-zero-row": dict(rows=6, cols=4, rank=3, zero_rows=(2,)),
    "7x7": dict(rows=7, cols=7),
    "7x7-rank5": dict(rows=7, cols=7, rank=5),
    "7x7-zero-row-col": dict(rows=7, cols=7, zero_rows=(6,), zero_cols=(1,)),
    "5x5-rank4": dict(rows=5, cols=5, rank=4),
}
SEEDS = range(3)


def _cases(square=False):
    return [
        pytest.param(seed, kw, id=f"{name}-{seed}")
        for name, kw in CASES.items()
        if not square or kw["rows"] == kw["cols"]
        for seed in SEEDS
    ]


@pytest.mark.parametrize("seed,kw", _cases())
def test_rank_and_kernel_match_reference(seed, kw):
    m = _matrix(seed, **kw)
    assert m.rank() == _ref_rank(m)
    kernel = m.kernel_basis()
    assert kernel == _ref_kernel_basis(m)
    assert kernel.shape == (m.cols, m.cols - m.rank())
    assert mat_is_zero(m @ kernel)


@pytest.mark.parametrize("seed,kw", _cases(square=True))
def test_det_and_inverse_match_reference(seed, kw):
    m = _matrix(seed, **kw)
    det = m.det()
    assert det == _ref_det(m)
    if det.is_zero():
        for inverse in (_ref_inverse, echelon_inverse, ExactMatrix.inverse):
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
    else:
        assert m.inverse() == _ref_inverse(m)
        assert m.inverse().integer_form == echelon_inverse(m).integer_form


def _pencil_gauge_matrix(r, seed, monkeypatch):
    """The M that `kronecker_reduce` inverts for the seeded pencil of size r."""
    seen, inverse = [], ExactMatrix.inverse
    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "inverse", lambda m: seen.append(m) or inverse(m))
        kronecker_reduce(*random_injective_pencil(r, seed))
    [m] = seen
    return m


def _gi(re, im=0):
    return GaussianRational(re, im)


_BIG = 2**63 + 5
INVERSE_CASES = {
    # leading zeros force a swap at step 0, and a zero met at step 1
    "swap-at-step-0": [[_ZERO, _gi(1)], [_gi(2, 1), _gi(3)]],
    "swap-at-step-1": [[_gi(1), _gi(1), _ZERO], [_gi(1), _gi(1), _gi(0, 1)], [_ZERO, _gi(1), _gi(1)]],
    "1x1": [[_gi(Fraction(3, 4), -2)]],
    "0x0": [],
    "past-2^63": [[_gi(_BIG, -_BIG), _gi(3)], [_gi(-7, 2**70), _gi(_BIG * _BIG, 1)]],
    "mixed-denominators": [
        [_gi(Fraction(1, 2), Fraction(1, 3)), _gi(Fraction(5, 7)), _gi(0, Fraction(-1, 6))],
        [_gi(Fraction(2, 5)), _gi(Fraction(-3, 4), 1), _gi(Fraction(1, 9))],
        [_gi(1), _gi(0, Fraction(1, 11)), _gi(Fraction(7, 3), Fraction(-2, 5))],
    ],
}


@pytest.mark.parametrize("name", INVERSE_CASES)
def test_inverse_form_is_the_echelon_oracles_on_planted_cases(name):
    m = ExactMatrix(INVERSE_CASES[name], cols=len(INVERSE_CASES[name]))
    inv = m.inverse()
    assert inv.integer_form == echelon_inverse(m).integer_form
    assert m @ inv == identity_matrix(m.rows)


@pytest.mark.parametrize("r", range(1, 9))
def test_inverse_form_is_the_echelon_oracles_on_pencil_gauges(r, monkeypatch):
    # the dense M of `kronecker_reduce`, and the signed anti-diagonal base
    # line T of the canonical pencil, which a curve in canonical gauge has
    mats = [_pencil_gauge_matrix(r, seed, monkeypatch) for seed in (1, 2)]
    if r <= 4:
        T, _ = _minor_table(*canonical_pair(r))
        mats.append(ExactMatrix.from_integer_form(T, 1, r + 1))
    for m in mats:
        assert m.inverse().integer_form == echelon_inverse(m).integer_form


def _ref_gauss_jordan_inverse(m):
    """Gauss-Jordan on [M | I], entry by entry on Fraction pairs."""
    n = m.rows
    rows = _augmented(m)
    for c in range(n):
        p = next(i for i in range(c, n) if not rows[i][c].is_zero())
        rows[c], rows[p] = rows[p], rows[c]
        lead = rows[c][c]
        rows[c] = [z / lead for z in rows[c]]
        for i in range(n):
            if i != c and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [z - f * w for z, w in zip(rows[i], rows[c])]
    return ExactMatrix([row[n:] for row in rows], cols=n)


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_is_born_in_its_form_and_matches_fraction_reference(seed):
    # from entries, from a product (over D_L * D_R) and from an integer form
    a, b = _matrix(seed, 7, 7), _matrix(seed + 10, 4, 4)
    square = b @ _matrix(seed + 20, 4, 4)
    rows, den = square.integer_form
    for m in (a, _matrix(seed, 1, 1), square, ExactMatrix.from_integer_form(rows, den, 4)):
        inv = m.inverse()
        ref = _ref_gauss_jordan_inverse(m)
        assert inv._data is None
        assert inv == ref and inv._data is None  # == read only the integer forms
        assert inv.data == ref.data
        assert inv.integer_form[1] > 0


def test_planted_cases_cover_both_outcomes():
    # the square cases hold invertible and singular matrices, and the
    # planted deficits really drop the rank
    singular = [
        _matrix(seed, **kw).det().is_zero() for kw in CASES.values() if kw["rows"] == kw["cols"] for seed in SEEDS
    ]
    assert any(singular) and not all(singular)
    assert _matrix(0, **CASES["7x7-rank5"]).rank() == 5
    assert _matrix(0, **CASES["6x4-rank3-zero-row"]).rank() == 3


def _ref_matmul(a, b):
    """Entry-wise product on (re, im) Fraction pairs, built through the
    constructor from its entries."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            re = im = Fraction(0)
            for k in range(a.cols):
                x, y = a.data[i][k], b.data[k][j]
                re += x.re * y.re - x.im * y.im
                im += x.re * y.im + x.im * y.re
            row.append(GaussianRational(re, im))
        out.append(row)
    return ExactMatrix(out, cols=b.cols)


def _ref_equal(a, b):
    return a.shape == b.shape and all(x == y for ra, rb in zip(a.data, b.data) for x, y in zip(ra, rb))


_SHAPES = [(3, 4, 2), (4, 4, 4), (1, 5, 3), (2, 1, 6), (0, 3, 2), (3, 2, 0)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m,k,n", _SHAPES)
def test_products_match_fraction_reference(seed, m, k, n):
    # entries with denominators 1..3, so each operand's D is mixed
    a, b = _matrix(seed, m, k), _matrix(seed + 10, k, n)
    c = _matrix(seed + 20, n, 3)
    ab = a @ b
    ref = _ref_matmul(a, b)
    assert ab.shape == ref.shape == (m, n)
    assert ab.data == ref.data
    assert ab == ref and ref == ab and hash(ab) == hash(ref)
    chained = (a @ b) @ c
    ref_chained = _ref_matmul(ref, c)
    assert chained.data == ref_chained.data
    assert chained == ref_chained == a @ (b @ c)
    assert hash(chained) == hash(ref_chained)


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_and_hash_match_entrywise(seed):
    a = _matrix(seed, 4, 5)
    doubled = ExactMatrix([[z * 2 for z in row] for row in a.data])
    # the same matrix through a product (D_L * D_R) and through its entries
    via_product = a @ identity_matrix(5)
    for x, y in ((a, via_product), (a, doubled), (doubled, mat_scale(a, 2)), (a, _matrix(seed, 4, 4))):
        assert (x == y) == _ref_equal(x, y)
        assert (x != y) == (not _ref_equal(x, y))
        if _ref_equal(x, y):
            assert hash(x) == hash(y)
    one_entry = [list(row) for row in a.data]
    one_entry[3][4] = one_entry[3][4] + GaussianRational(0, Fraction(1, 7))
    assert a != ExactMatrix(one_entry) and not _ref_equal(a, ExactMatrix(one_entry))
    assert a != a.data


def test_unread_product_compares_to_one_built_from_entries():
    a, b = _matrix(5, 4, 3), _matrix(6, 3, 4)
    product = a @ b
    ref = _ref_matmul(a, b)
    assert product == ref
    assert product._data is None  # == read only the integer forms
    assert hash(product) == hash(ref)
    assert product.data == ref.data


def test_inner_dimension_zero_keeps_the_columns():
    product = zero_matrix(2, 0) @ zero_matrix(0, 3)
    assert product.shape == (2, 3)
    assert product == zero_matrix(2, 3)
    assert product.data == zero_matrix(2, 3).data
    assert (zero_matrix(0, 2) @ zero_matrix(2, 3)).shape == (0, 3)
    assert (zero_matrix(2, 3) @ zero_matrix(3, 0)).shape == (2, 0)


def _ref_stabilizer_dimension(A1, A2):
    """pair_stabilizer_dimension with each row cleared by `integer_row`."""
    r = A1.cols
    n = r + 1
    num = n * n + r * r
    rows = []
    for A in (A1, A2):
        for i in range(n):
            for j in range(r):
                x_part = [(i * n + l, A[l, j]) for l in range(n)]
                y_part = [(n * n + l * r + j, A[i, l]) for l in range(r)]
                rows.append(integer_row(x_part + y_part))
    return num - certified_rank(rows, num, num - 1)


def _rational_gauge(seed, n):
    """A seeded invertible n x n matrix with fractional Gaussian entries."""
    rng = random.Random(seed)
    while True:
        m = ExactMatrix([[_entry(rng) for _ in range(n)] for _ in range(n)])
        if not m.det().is_zero():
            return m


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stabilizer_of_rationally_gauged_pencils_matches_integer_row_route(r):
    S, T = canonical_pair(r)
    pencils = [random_injective_pencil(r, seed) for seed in range(2)] + [(S, T), (S, S), (S, mat_scale(S, 0))]
    for k, (A1, A2) in enumerate(pencils):
        P, Q = _rational_gauge(100 * r + k, r + 1), _rational_gauge(100 * r + k + 50, r)
        G1, G2 = P @ A1 @ Q, P @ A2 @ Q
        assert any(z.re.denominator > 1 or z.im.denominator > 1 for row in G1.data for z in row)
        want = _ref_stabilizer_dimension(A1, A2)
        assert pair_stabilizer_dimension(A1, A2) == want
        # gauge invariant, and the gauged pencil ranks from two fresh forms
        assert _ref_stabilizer_dimension(G1, G2) == want
        assert pair_stabilizer_dimension(G1, G2) == want
        assert pair_stabilizer_dimension(ExactMatrix(G1.data), ExactMatrix(G2.data)) == want
