"""Delayed reduction mod p against the reducing kernel, and the prime table.

The private reference below is `rank_mod` as it ran before
`modp._eliminate`: an int64 `% p` of every hit row at every pivot.  The
kernel must return the same rank, with and without a stop rank, and the
same pivot columns at every prime of `modp.PRIMES`, also with
`modp.budget` cut to 1, 2 and 3 so that its block reduction runs every
step or every few steps.
"""

import numpy as np
import pytest

from hkcurves.exact_algebra import modp


def _ref_pivots(m, p, stop_rank=None):
    nrows, ncols = m.shape
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == nrows or (stop_rank is not None and rank >= stop_rank):
            break
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        inv = pow(int(m[rank, c]), p - 2, p)
        m[rank] = m[rank] * inv % p
        below = m[rank + 1 :, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            block = m[rank + 1 :][hit]
            block = (block - np.outer(below[hit], m[rank])) % p
            m[rank + 1 :][hit] = block
        pivots.append(c)
    return pivots


def _ref_rank_mod(m, p, stop_rank=None):
    return len(_ref_pivots(m, p, stop_rank))


def _planted(rng, p, nrows, ncols, rank):
    """A reduced nrows x ncols matrix of rank at most `rank`: a product of
    random factors mod p, with zero rows and columns and repeated rows."""
    a, b = rng.integers(0, p, (nrows, rank)), rng.integers(0, p, (rank, ncols))
    # the product mod p, reduced after every budget(p) products
    m = np.zeros((nrows, ncols), dtype=np.int64)
    step = modp.budget(p)
    for k in range(0, rank, step):
        m = (m + a[:, k : k + step] @ b[k : k + step]) % p
    m[rng.choice(nrows, nrows // 5, replace=False)] = 0
    m[:, rng.choice(ncols, ncols // 5, replace=False)] = 0
    repeat = nrows // 10
    if repeat:
        m[:repeat] = m[-repeat:]
    return m


def _cases(p, seed):
    rng = np.random.default_rng(seed)
    yield rng.integers(0, p, (7, 5))
    yield np.full((6, 9), p - 1, dtype=np.int64)
    yield np.zeros((4, 3), dtype=np.int64)
    for nrows, ncols, rank in ((12, 9, 4), (9, 12, 9), (30, 40, 17), (60, 45, 45), (80, 120, 33)):
        m = _planted(rng, p, nrows, ncols, rank)
        yield m.copy()
        # all-(p-1) entries make every product (p-1)^2, the largest
        m[: nrows // 2, ::2] = p - 1
        yield m


def _check(m, p, stops=True):
    rank = _ref_rank_mod(m.copy(), p)
    assert modp.rank_mod(m.copy(), p) == rank
    for stop in (0, 1, rank // 2, rank, rank + 1) if stops else ():
        assert modp.rank_mod(m.copy(), p, stop) == _ref_rank_mod(m.copy(), p, stop)
    want_pivots = _ref_pivots(m.copy(), p)
    assert len(want_pivots) == rank
    assert modp._eliminate(m.copy(), p, None) == want_pivots


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_kernel_matches_reducing_kernel(monkeypatch, cut):
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    for index, (p, _) in enumerate(modp.PRIMES):
        for m in _cases(p, 31 * index + (cut or 0)):
            _check(m, p)


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_kernel_takes_both_update_branches(monkeypatch, cut):
    # column 0 hits all five rows below its pivot (more than half: the update
    # of every row) and column 1 only row 4 (the update of the hit rows); row
    # 0's entry in column 4 makes the first update change values
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    pattern = np.array(
        [
            [1, 0, 0, 0, 1],
            [1, 1, 0, 0, 0],
            [1, 0, 1, 0, 0],
            [1, 0, 0, 1, 0],
            [1, 1, 0, 0, 1],
            [1, 0, 0, 0, 0],
        ]
    )
    rng = np.random.default_rng(5)
    for p, _ in modp.PRIMES:
        m = pattern * rng.integers(1, p, pattern.shape)
        _check(m, p)
        assert _ref_pivots(m.copy(), p) == [0, 1, 2, 3, 4]


def test_kernel_matches_reducing_kernel_on_a_large_matrix():
    # about the size of the r = 6 certificate levels (1155 x 680)
    rng = np.random.default_rng(7)
    for p, _ in modp.PRIMES:
        m = _planted(rng, p, 1200, 700, 64)
        m[100:300, 200:400] = p - 1
        _check(m, p, stops=False)


def test_kernel_reduces_within_budget_near_2_31():
    # at p = 2^31 - 1 a product is about 2^62 and budget(p) = 2, so a block
    # left unreduced past its budget overflows int64 and changes the answer
    p = 2**31 - 1
    assert modp.budget(p) == 2
    rng = np.random.default_rng(11)
    wide = rng.integers(0, p, (30, 40))
    for m in (wide, _planted(rng, p, 40, 30, 12), np.maximum(wide, p - 2)):
        _check(m, p)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_prime_table():
    assert len(modp.PRIMES) == 3
    for (p, s), (q, g) in zip(modp.PRIMES, modp._PRIME_ROOTS):
        assert p == q and _is_prime(p)
        assert p % 4 == 1 and p < 2**26
        assert (s * s + 1) % p == 0
        # g is a quadratic non-residue (Euler's criterion)
        assert pow(g, (p - 1) // 2, p) == p - 1
        assert modp.budget(p) >= 2047
        assert modp.budget(p) * (p - 1) ** 2 + p <= 2**63 - 1


def test_sqrt_minus_one_names_a_residue():
    # 4 = 2^2 is a square mod every odd prime, so its (p-1)/4 power is +-1
    with pytest.raises(AssertionError, match="not a quadratic non-residue"):
        modp._sqrt_minus_one(modp.PRIMES[0][0], 4)


def _ref_rows_mod(rows, ncols, p, s):
    """`rows_mod` as it ran before its one scatter: one assignment per entry."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for col, a, b in row:
            out[i, col] = (a + s * b) % p
    return out


def test_rows_mod_scatter_matches_the_per_entry_reduction():
    rng = np.random.default_rng(13)
    big = 2**63 + 2**40 + 5
    rows = [
        [(0, big, -big), (3, -(2**70), 2**64 + 1), (5, -1, 0)],
        [],
        [(c, int(a), int(b)) for c, a, b in zip(range(0, 9, 2), rng.integers(-99, 99, 5), rng.integers(-99, 99, 5))],
        [],
        [(8, 0, -(2**65))],
    ]
    for p, s in modp.PRIMES:
        for case, ncols in ((rows, 9), ([[], []], 4), ([], 3), ([[(1, -3, 2**80)]], 2)):
            got = modp.rows_mod(case, ncols, p, s)
            want = _ref_rows_mod(case, ncols, p, s)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert ((0 <= got) & (got < p)).all()
