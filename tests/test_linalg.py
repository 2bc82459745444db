"""Exact matrices, echelon helpers, and the modular rank certificate."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.ideals import eliminate
from hkcurves.exact_algebra.linalg import ExactMatrix, _field, _pack, random_invertible
from hkcurves.exact_algebra.modp import PRIMES, rank_mod, rows_mod, sparse_rank_certificate
from hkcurves.exact_algebra.scalars import MAX_DRAWS, GaussianRational
from suites import identity_matrix, integer_row, mat_is_zero, zero_matrix

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def _random_matrix(rng, rows, cols, span=4):
    return ExactMatrix(
        [
            [
                GaussianRational(
                    Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                )
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


def test_identity_and_product():
    rng = random.Random(3)
    m = _random_matrix(rng, 3, 3)
    eye = identity_matrix(3)
    assert m @ eye == m
    assert eye @ m == m


def test_inverse_round_trip_seeded():
    rng = random.Random(5)
    found = 0
    while found < 20:
        m = _random_matrix(rng, 3, 3)
        if m.det().is_zero():
            continue
        found += 1
        assert m @ m.inverse() == identity_matrix(3)
        assert m.inverse() @ m == identity_matrix(3)


def test_det_multiplicative_seeded():
    rng = random.Random(6)
    for _ in range(20):
        a = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, 3)
        assert (a @ b).det() == a.det() * b.det()


def test_rank_and_kernel_dimensions():
    rng = random.Random(8)
    for _ in range(20):
        m = _random_matrix(rng, 4, 6)
        k = m.kernel_basis()
        assert m.rank() + k.shape[1] == 6
        assert mat_is_zero(m @ k)


def test_kernel_of_rank_deficient_matrix():
    # two equal rows: rank 1, nullity 2
    row = [ONE, GaussianRational(2, 0), GaussianRational(0, 1)]
    m = ExactMatrix([row, list(row)])
    assert m.rank() == 1
    assert m.kernel_basis().shape[1] == 2


def test_inverse_of_singular_matrix_raises():
    # a zero row, and [[1, i], [i, -1]] with det -1 - i^2 = 0
    I = GaussianRational(0, 1)
    for rows in ([[ONE, ZERO], [ZERO, ZERO]], [[ONE, I], [I, -ONE]]):
        with pytest.raises(ValueError, match="singular"):
            ExactMatrix(rows).inverse()


def test_inverse_closing_check_rejects_a_wrong_echelon(monkeypatch):
    # field 0 of the first packed row of [N | I] off by one: the elimination
    # inverts [[2, 2 + i], [3, 4i]], which is invertible, so the candidate is
    # not M^-1, and the check of M * inv against D' * I must say so
    from hkcurves.exact_algebra import linalg

    pack, calls = linalg._pack, []

    def off_by_one(values, K):
        calls.append(values)
        return pack(values, K) + (len(calls) == 1)

    m = ExactMatrix([[ONE, GaussianRational(2, 1)], [GaussianRational(3), GaussianRational(0, 4)]])
    assert m @ m.inverse() == identity_matrix(2)
    monkeypatch.setattr(linalg, "_pack", off_by_one)
    with pytest.raises(ValueError, match="singular"):
        m.inverse()
    assert calls and calls[0][0] == 1


def test_singular_matrix_missing_its_last_pivot_raises_before_the_check(monkeypatch):
    # row 2 = row 0 + i * row 1: pivots at columns 0 and 1, none at column 2,
    # so the pivot search raises and no closing product is formed
    r0 = [ONE, GaussianRational(2), GaussianRational(3, 1)]
    r1 = [GaussianRational(0, 2), ONE, GaussianRational(4)]
    r2 = [GaussianRational(-1), GaussianRational(2, 1), GaussianRational(3, 5)]
    m = ExactMatrix([r0, r1, r2])
    assert m.rank() == 2 and ExactMatrix([r0, r1]).rank() == 2
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda *args: pytest.fail("closing check reached"))
    with pytest.raises(ValueError, match="^singular matrix$"):
        m.inverse()


def test_pack_and_field_round_trip_with_adjacent_negative_fields():
    # every field |v| < 2^(K-1), negative next to negative, zero and extreme
    for values in product(range(-3, 4), repeat=3):
        packed = _pack(list(values), 3)
        assert [_field(packed, j, 3) for j in range(4)] == [*values, 0]
    K, top = 70, 2**69 - 1
    values = [-1, -top, top, -top, -1, 0, -5, top, 1]
    packed = _pack(values, K)
    assert [_field(packed, j, K) for j in range(len(values))] == values
    assert _pack([], K) == 0 and _field(0, 3, K) == 0


def test_combine_rows_eliminates_pivot():
    # 2 + x2 against the pivot 4 + x1, kept over D = 4 as (0, 4, 0), (1, 1, 0)
    out = eliminate([(0, 2, 0), (2, 1, 0)], 0, [(0, 4, 0), (1, 1, 0)])
    assert out and out[0][0] == 1
    assert out == [(1, -1, 0), (2, 2, 0)]


def test_primes_admit_sqrt_minus_one():
    for p, s in PRIMES:
        assert p % 4 == 1
        assert (s * s + 1) % p == 0


def _value_mod(v, p, s):
    """The image of v: its numerators a + s*b over the common denominator,
    times that denominator's inverse mod p."""
    a, b, den = v.integer_parts()
    return (a + s * b) * pow(den, p - 2, p) % p


def test_rows_mod_matches_value_mod():
    # rows_mod reduces the Gaussian integers of rows cleared of denominators;
    # entries must equal _value_mod's of the cleared values, which include
    # multiples of the primes themselves and numerators no int64 holds
    rng = random.Random(23)
    dens = [1, 2, 3, 7, 9, 12]

    def entry():
        return Fraction(rng.choice([rng.randint(-9, 9), PRIMES[0][0]]), rng.choice(dens))

    rows = [
        [(c, GaussianRational(entry(), entry())) for c in sorted(rng.sample(range(8), 5))]
        for _ in range(6)
    ]
    cleared = [integer_row(row) for row in rows]
    # numerators beyond int64, negative ones, and empty rows
    big = 2**70 + 12345
    cleared += [[(0, -3, 5), (2, big, -big), (7, -big, 7)], [], [(1, 2**64, 2**64 + 1), (3, -1, -1)], []]
    for p, s in PRIMES:
        got = rows_mod(cleared, 8, p, s)
        want = np.zeros((len(cleared), 8), dtype=np.int64)
        for i, row in enumerate(cleared):
            for c, a, b in row:
                want[i, c] = _value_mod(GaussianRational(a, b), p, s)
        assert np.array_equal(got, want)


def test_rank_mod_lower_bounds_exact_rank():
    rng = random.Random(21)
    for _ in range(20):
        m = _random_matrix(rng, 5, 6)
        rows = [integer_row(enumerate(m.data[i])) for i in range(5)]
        exact = m.rank()
        p, s = PRIMES[0]
        modular = rank_mod(rows_mod(rows, 6, p, s), p)
        assert modular <= exact
        # random small matrices essentially never degenerate mod a word-size prime
        assert modular == exact


def test_sparse_rank_certificate_hits_true_rank():
    rng = random.Random(22)
    m = _random_matrix(rng, 6, 6)
    rows = [integer_row(enumerate(m.data[i])) for i in range(6)]
    exact = m.rank()

    def level(p, s):
        return rows_mod(rows, 6, p, s)

    assert sparse_rank_certificate(exact, level)
    assert not sparse_rank_certificate(exact + 1, level)


def test_sparse_rank_certificate_of_column_prefixes():
    # column 1 is twice column 0 and column 3 is column 0 plus column 2, so
    # the prefix ranks are 1, 1, 2, 2, 3 at widths 1..5
    dense = [[1, 2, 1j, 1 + 1j, 0], [2, 4, 3, 5, 1], [1j, 2j, 1, 1 + 1j, 2], [0, 0, 1, 1, 0]]
    dense = [[(int(complex(v).real), int(complex(v).imag)) for v in row] for row in dense]
    rows = [[(c, a, b) for c, (a, b) in enumerate(row) if a or b] for row in dense]
    matrix = ExactMatrix([[GaussianRational(a, b) for a, b in row] for row in dense])
    widths, ranks = [1, 2, 3, 4, 5], [1, 1, 2, 2, 3]
    assert [ExactMatrix([row[:w] for row in matrix.data]).rank() for w in widths] == ranks

    def level(p, s):
        return rows_mod(rows, 5, p, s)

    verdicts = sparse_rank_certificate(ranks, level, widths)
    assert list(verdicts) == [True] * 5 and verdicts
    # a bound above a prefix's rank leaves that prefix alone uncertified
    verdicts = sparse_rank_certificate([1, 2, 2, 2, 3], level, widths)
    assert list(verdicts) == [True, False, True, True, True] and not verdicts
    with pytest.raises(ArithmeticError, match="rank 2 mod p exceeds certified bound 1"):
        sparse_rank_certificate([1, 1, 2, 1, 3], level, widths)
    # the elimination stops one pivot past the largest bound, so a prefix it
    # does not reach holds more pivots than its bound
    with pytest.raises(ArithmeticError, match="rank 2 mod p exceeds certified bound 1"):
        sparse_rank_certificate([1, 1], level, [1, 5])


def test_copy_and_pickle_round_trips():
    rng = random.Random(4)
    a, b = _random_matrix(rng, 3, 4), _random_matrix(rng, 4, 2)
    # a product holds only its integer form until its entries are read
    for value in (a, a @ b, zero_matrix(0, 3), zero_matrix(2, 0) @ zero_matrix(0, 3)):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is ExactMatrix
            assert clone.shape == value.shape
            assert clone == value and clone.data == value.data
            assert hash(clone) == hash(value)


def test_random_invertible_gives_up_instead_of_hanging(monkeypatch):
    ranked = []

    def rank(self):
        ranked.append(self)
        if len(ranked) > MAX_DRAWS:
            raise AssertionError("drew past the bound")
        return 0

    monkeypatch.setattr(ExactMatrix, "rank", rank)
    with pytest.raises(RuntimeError, match=f"^no invertible matrix after {MAX_DRAWS} draws \\(size=3\\)$"):
        random_invertible(3, random.Random(0))
    assert len(ranked) == MAX_DRAWS
