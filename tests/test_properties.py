"""Properties of the exact core over drawn inputs: the GAUSS literal round
trip, multiplicativity of the Laplace determinant, the inequality
rank mod p <= exact rank that every modular rank certificate rests on, and
the block elimination that ranks the pencil stabilizer mod p."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves.exact_algebra.ideals import sparse_row_rank
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.modp import PRIMES, rank_mod, rows_mod
from hkcurves.exact_algebra.scalars import GaussianRational, format_gauss, parse_gauss
from hkcurves.pencil import _stabilizer_level, _stabilizer_rows, pair_stabilizer_dimension
from suites import integer_row

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=50)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)
gaussian_rationals = st.builds(GaussianRational, rationals, rationals)
gaussian_integers = st.builds(GaussianRational, st.integers(-9, 9), st.integers(-9, 9))
# the primes themselves vanish mod p, so a modular rank can drop below the exact one
entry_parts = st.one_of(st.integers(-9, 9), st.sampled_from([p for p, _ in PRIMES]))
sparse_entries = st.builds(GaussianRational, entry_parts, entry_parts).filter(
    lambda v: not v.is_zero()
)


def square_pairs(n):
    matrix = st.lists(
        st.lists(gaussian_integers, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(ExactMatrix)
    return st.tuples(matrix, matrix)


def pencil_pairs(r):
    """(A1, A2), (r+1) x r, drawn as the rows of [A1 | A2]; a row times a
    prime vanishes there, so rank_p([A1 | A2]) drops below the exact rank."""
    entries = st.lists(st.builds(GaussianRational, entry_parts, entry_parts), min_size=2 * r, max_size=2 * r)
    row = st.tuples(entries, st.sampled_from([1] + [p for p, _ in PRIMES])).map(lambda e: [z * e[1] for z in e[0]])
    rows = st.lists(row, min_size=r + 1, max_size=r + 1)
    return rows.map(lambda rows: (ExactMatrix([x[:r] for x in rows]), ExactMatrix([x[r:] for x in rows])))


def sparse_rows(ncols):
    row = st.dictionaries(st.integers(0, ncols - 1), sparse_entries, max_size=ncols)
    rows = st.lists(row.map(lambda r: integer_row(sorted(r.items()))), max_size=6)
    return st.tuples(rows, st.just(ncols))


@PROPERTY
@given(gaussian_rationals)
def test_gauss_literal_round_trip(z):
    text = format_gauss(z)
    assert parse_gauss(text) == z
    assert format_gauss(parse_gauss(text)) == text


@PROPERTY
@given(st.integers(1, 4).flatmap(square_pairs))
def test_det_is_multiplicative(pair):
    A, B = pair
    assert (A @ B).det() == A.det() * B.det()


@PROPERTY
@given(st.integers(1, 6).flatmap(sparse_rows))
def test_rank_mod_never_exceeds_exact_rank(drawn):
    rows, ncols = drawn
    exact = sparse_row_rank(rows)
    for p, s in PRIMES:
        assert rank_mod(rows_mod(rows, ncols, p, s), p) <= exact


@PROPERTY
@given(st.integers(1, 3).flatmap(pencil_pairs))
def test_stabilizer_block_rank_is_the_full_rank_mod_p(pair):
    A1, A2 = pair
    n, r = A1.shape
    num = n * n + r * r
    rows = _stabilizer_rows(A1, A2)
    for p, s in PRIMES:
        known, W = _stabilizer_level(A1, A2)(p, s)
        assert known + rank_mod(W, p) == rank_mod(rows_mod(rows, num, p, s), p)
    assert pair_stabilizer_dimension(A1, A2) == num - sparse_row_rank(rows)
