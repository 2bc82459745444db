"""Properties of the exact core over drawn inputs: the GAUSS literal round
trip, multiplicativity of the Laplace determinant, and the inequality
rank mod p <= exact rank that every modular rank certificate rests on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves.exact_algebra.ideals import integer_row, sparse_row_rank
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.modp import PRIMES, rank_mod, rows_mod
from hkcurves.exact_algebra.scalars import GaussianRational, format_gauss, parse_gauss

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
