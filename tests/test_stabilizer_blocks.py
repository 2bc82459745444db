"""The pencil stabilizer's block rank mod p against the full system's.

`pair_stabilizer_dimension` ranks X*Ai + Ai*Y = 0 at a prime as
n * rank_p(B) + rank_p(W), with B = [A1 | A2] and W the equations left on
Y once a kernel basis of B mod p has eliminated X.  At every prime of
`modp.PRIMES` that must equal `rank_mod` of the full system's rows reduced
by `rows_mod`, also where B loses rank mod p.  `modp.kernel_mod` must give
a kernel basis with an identity block on the free columns.
"""

import numpy as np
import pytest

from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.pencil import (
    _stabilizer_level,
    _stabilizer_rows,
    canonical_pair,
    pair_stabilizer_dimension,
    random_injective_pencil,
)
from suites import mat_scale, zero_matrix


def block_and_full_ranks(A1, A2, p, s):
    """(n * rho, rank_p(W), rank_p(full rows)) of the pair at (p, s)."""
    n, r = A1.shape
    known, W = _stabilizer_level(A1, A2)(p, s)
    assert W.shape == (n * (2 * r - known // n), r * r) and known % n == 0
    assert W.min(initial=0) >= 0 and W.max(initial=0) < p
    full = modp.rows_mod(_stabilizer_rows(A1, A2), n * n + r * r, p, s)
    return known, modp.rank_mod(W, p), modp.rank_mod(full, p)


def _pairs():
    pairs = {f"injective r={r}": random_injective_pencil(r, 70 + r) for r in range(1, 8)}
    for r in (1, 2, 4):
        S, T = canonical_pair(r)
        pairs[f"(S, T) r={r}"] = (S, T)
        pairs[f"(S, S) r={r}"] = (S, S)
        pairs[f"(T, S) r={r}"] = (T, S)
    A1, _ = random_injective_pencil(3, 5)
    pairs["A2 = 0"] = (A1, zero_matrix(4, 3))
    return pairs


PAIRS = _pairs()


@pytest.mark.parametrize("name", list(PAIRS))
def test_block_rank_matches_full_system(name):
    A1, A2 = PAIRS[name]
    for p, s in modp.PRIMES:
        known, w_rank, full = block_and_full_ranks(A1, A2, p, s)
        assert known + w_rank == full, (name, p)


def test_block_rank_at_r1_has_no_w_rows():
    A1, A2 = random_injective_pencil(1, 71)
    for p, s in modp.PRIMES:
        known, W = _stabilizer_level(A1, A2)(p, s)
        assert W.shape == (0, 1) and known == 4


def test_block_rank_where_one_prime_divides_the_pair():
    (p, s), others = modp.PRIMES[0], modp.PRIMES[1:]
    for A1, A2 in (random_injective_pencil(4, 9), canonical_pair(3)):
        n, r = A1.shape
        scaled = (mat_scale(A1, p), mat_scale(A2, p))
        # B = 0 mod p: no pivot on X, and W is zero too
        known, w_rank, full = block_and_full_ranks(*scaled, p, s)
        assert (known, w_rank, full) == (0, 0, 0)
        for q, t in others:
            known, w_rank, full = block_and_full_ranks(*scaled, q, t)
            assert known + w_rank == full == n * n + r * r - 1
        assert pair_stabilizer_dimension(*scaled) == 1


def _kernel_inputs():
    rng = np.random.default_rng(3)
    p = modp.PRIMES[0][0]
    out = [np.zeros((3, 5), dtype=np.int64), np.eye(4, dtype=np.int64), np.zeros((0, 3), dtype=np.int64)]
    for nrows, ncols, rank in ((5, 8, 3), (7, 12, 7), (6, 4, 2), (4, 9, 1)):
        a, b = rng.integers(0, p, (nrows, rank)), rng.integers(0, p, (rank, ncols))
        m = np.zeros((nrows, ncols), dtype=np.int64)
        for k in range(rank):
            m = (m + np.outer(a[:, k], b[k]) % p) % p
        # a zero column and a repeated row, so pivots skip columns
        m[:, 1] = 0
        m[-1] = m[0]
        out.append(m)
    for A1, A2 in (random_injective_pencil(6, 1), canonical_pair(3)):
        forms = zip(A1.integer_form[0], A2.integer_form[0])
        joined = [[(j, a, b) for j, (a, b) in enumerate(r1 + r2)] for r1, r2 in forms]
        out.append(modp.rows_mod(joined, 2 * A1.cols, *modp.PRIMES[1]))
    return out


@pytest.mark.parametrize("k", range(9))
def test_kernel_mod_is_a_kernel_basis(k):
    drawn = _kernel_inputs()[k]
    for p, _ in modp.PRIMES:
        m = drawn % p
        K = modp.kernel_mod(m, p)
        pivots = modp._eliminate(m.copy(), p, None)
        free = [c for c in range(m.shape[1]) if c not in pivots]
        assert K.shape == (m.shape[1], len(free))
        assert K.min(initial=0) >= 0 and K.max(initial=0) < p
        # an identity block on the free columns makes the columns independent
        assert np.array_equal(K[free], np.eye(len(free), dtype=np.int64))
        # M*K = 0 mod p, with each product reduced before the sum
        product = sum(m[:, c, None] * K[c] % p for c in range(m.shape[1]))
        assert not np.any(product % p)
