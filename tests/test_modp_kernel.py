"""Delayed reduction mod p against the reducing kernel, and the prime table.

The private reference below is `rank_mod` as it ran before
`modp._eliminate`: an int64 `% p` of every hit row at every pivot.  The
kernel must return the same rank, with and without a stop rank, and the
same pivot columns at every prime of `modp.PRIMES`, also with
`modp.budget` cut to 1, 2 and 3 so that its block reduction runs every
step or every few steps.  A cut to 1 leaves only one-column steps; the
cases below also reach the kernel's two-column steps at cuts 2 and 3 and
at p = 2^31 - 1, whose budget is 2.

`modp.crt_lift` must give back exactly the integers its run reduces, on
both sides of 2^63 - 1, with or without the primes.
"""

import itertools
import math
import random

import numpy as np
import pytest

from hkcurves import rational_curve
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


# the primes of the table and one whose budget is 2, for the block tests
BLOCK_PRIMES = [p for p, _ in modp.PRIMES] + [2**31 - 1]


def _mix(rng, p, m):
    """L * m mod p for a random unit lower triangular L, row operations
    that keep every pivot and every singular leading block; one product at
    a time so that no int64 sum overflows at p = 2^31 - 1."""
    n = len(m)
    low = np.tril(rng.integers(0, p, (n, n)), -1)
    low[np.arange(n), np.arange(n)] = 1
    out = np.zeros_like(m)
    for k in range(len(m)):
        out = (out + low[:, k : k + 1] * m[k]) % p
    return out


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_block_step_falls_back_mid_matrix(monkeypatch, cut):
    # columns 0, 1 make an invertible block; at rank 2 the block of
    # columns 2, 3 is singular ([1, 1] twice) although both are pivots, so
    # a one-column step runs there; the block of columns 3, 4 then has
    # a = 0 (the one-column route swaps rows) and columns 5, 6 are
    # independent again
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    pattern = np.array(
        [
            [1, 1, 0, 0, 0, 1, 0],
            [2, 1, 0, 0, 0, 0, 1],
            [0, 0, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1, 0, 0],
            [0, 0, 0, 2, 0, 1, 0],
            [0, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 1, 2],
            [0, 0, 0, 0, 0, 0, 0],
        ]
    )
    rng = np.random.default_rng(17)
    for p in BLOCK_PRIMES:
        assert _ref_pivots(pattern.copy(), p) == [0, 1, 2, 3, 4, 5, 6]
        for m in (pattern, _mix(rng, p, pattern)):
            _check(m, p)
            assert modp._eliminate(m.copy(), p, None) == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_block_step_skips_a_dependent_column(monkeypatch, cut):
    # column 1 is 3 times column 0 and column 4 is column 2 plus column 3,
    # so every block over them is singular and those columns are no pivots
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    rng = np.random.default_rng(19)
    for p in BLOCK_PRIMES:
        m = rng.integers(0, p, (9, 8))
        m[:, 1] = 3 * m[:, 0] % p
        m[:, 4] = (m[:, 2] + m[:, 3]) % p
        for case in (m, _mix(rng, p, m)):
            _check(case, p)
            assert modp._eliminate(case.copy(), p, None) == [0, 2, 3, 5, 6, 7]


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_block_step_stops_at_an_odd_rank(monkeypatch, cut):
    # rank 5 over more columns: stops below, at and above every prefix
    # rank, so that no two-column step runs past the stop
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    rng = np.random.default_rng(23)
    for p in BLOCK_PRIMES:
        m = _mix(rng, p, np.pad(rng.integers(0, p, (5, 11)), ((0, 4), (0, 0))))
        want = _ref_pivots(m.copy(), p)
        assert len(want) == 5
        for stop in range(8):
            got = modp._eliminate(m.copy(), p, stop)
            assert got == _ref_pivots(m.copy(), p, stop) == want[:stop]


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_block_step_on_dense_matrices_near_2_31(monkeypatch, cut):
    # budget 2 at p = 2^31 - 1: a two-column step fills the whole budget,
    # so a block counted as one product overflows on consecutive blocks
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    p = 2**31 - 1
    rng = np.random.default_rng(29)
    for nrows, ncols, rank in ((20, 24, 9), (24, 20, 13), (30, 30, 30)):
        m = _planted(rng, p, nrows, ncols, rank)
        _check(m, p)
        m[:, ::3] = p - 1
        _check(m, p)


def test_block_steps_fill_the_budget_near_2_31():
    # M = L U of rank 6 at p = 2^31 - 1 (budget 2), with 2 x 2 identity
    # pivot blocks, every multiplier and every pivot-row entry p - 1: each
    # two-column step subtracts 2 (p-1)^2 from every entry below, so two
    # steps without a reduction between them overflow int64
    p = 2**31 - 1
    nrows, ncols, rank = 10, 9, 6
    low = np.full((nrows, rank), p - 1, dtype=object)
    up = np.full((rank, ncols), p - 1, dtype=object)
    for k in range(0, rank, 2):
        low[k : k + 2] = 0
        low[k : k + 2, k : k + 2] = np.eye(2, dtype=int)
        up[k : k + 2, : k + 2] = 0
        up[k : k + 2, k : k + 2] = np.eye(2, dtype=int)
    low[rank:, :] = p - 1
    m = (low @ up % p).astype(np.int64)
    assert _ref_pivots(m.copy(), p) == list(range(rank))
    _check(m, p)


def _split_bands(seed):
    """The band matrices `normal_splitting_type` and
    `riemann_roch_consistent` certify for one degree-5 map (the two of
    `validate_map` and two windows), its conormal bands at every twist from
    d to 2d + 1 (the split's window is the one at 2d - 1; the others are
    taller), and the conormal window of all these twists, scattered through
    `_band_layout` at every prime."""
    seen = []
    level = rational_curve._FormRows.level

    def spy(self, band):
        seen.append((self, band))
        return level(self, band)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rational_curve._FormRows, "level", spy)
        curve_map = rational_curve.random_rational_map(5, seed)
        rational_curve.riemann_roch_consistent(curve_map, rational_curve.normal_splitting_type(curve_map))
        for m in range(5, 12):
            rational_curve.conormal_sections(curve_map, m)
        rational_curve.conormal_counts(curve_map, range(5, 12))
    for rows, ((nrows, ncols), r, c, src) in seen:
        for p, s in modp.PRIMES:
            out = np.zeros((nrows, ncols), dtype=np.int64)
            out[r, c] = rows._reduced(p, s).ravel()[src]
            yield out, p


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_block_step_on_rational_split_bands(monkeypatch, cut):
    bands = list(_split_bands(1001))
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    assert len(bands) >= 12 * len(modp.PRIMES)
    for m, p in bands:
        _check(m, p)


def _prefix_cases(p, seed):
    """Random matrices, one with every column independent, and matrices of
    low rank with zero and repeated rows and columns."""
    rng = np.random.default_rng(seed)
    yield rng.integers(0, p, (9, 14))
    yield rng.integers(0, p, (14, 9))
    for nrows, ncols, rank in ((12, 9, 4), (20, 24, 9), (24, 20, 13), (30, 30, 30)):
        yield _planted(rng, p, nrows, ncols, rank)


@pytest.mark.parametrize("cut", [None, 1, 2, 3])
def test_pivots_below_each_column_rank_its_prefix(monkeypatch, cut):
    # pivots are the first columns independent mod p, one- and two-column
    # steps alike, so those below w number rank_p(M[:, :w]): the fact that
    # lets one elimination rank a whole window of twists
    cases = [(m, p) for index, (p, _) in enumerate(modp.PRIMES) for m in _prefix_cases(p, 7 * index + 3)]
    cases += list(_split_bands(1002))
    if cut is not None:
        monkeypatch.setattr(modp, "budget", lambda p: cut)
    for m, p in cases:
        pivots = modp._eliminate(m.copy(), p, None)
        for w in range(m.shape[1] + 1):
            assert sum(c < w for c in pivots) == modp.rank_mod(m[:, :w].copy(), p), (m.shape, w)


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


def _lifted(values, bound):
    """crt_lift of a run that reduces `values` mod m, with the moduli it was given."""
    seen = []

    def run(m):
        seen.append(m)
        if m is None:
            return np.array(values, dtype=np.int64)
        return np.array([v % m for v in values], dtype=np.int64)

    return modp.crt_lift(run, bound), seen


def test_crt_lift_runs_int64_directly_up_to_2_63():
    bound = 2**63 - 1
    values = [0, 1, -1, bound, -bound, 12345]
    got, seen = _lifted(values, bound)
    assert seen == [None]
    assert got.dtype == np.int64 and got.tolist() == values


@pytest.mark.parametrize("no_primes", [False, True])
@pytest.mark.parametrize("bound", [2**63, 2**63 + 12345, 2**2000])
def test_crt_lift_returns_every_value_within_its_bound(monkeypatch, no_primes, bound):
    if no_primes:
        monkeypatch.setattr(modp, "PRIMES", ())
    rng = random.Random(bound % 1009)
    values = [0, 1, -1, bound, -bound, bound - 1, 1 - bound] + [rng.randint(-bound, bound) for _ in range(40)]
    got, moduli = _lifted(values, bound)
    assert got.dtype == object and got.tolist() == values
    assert all(type(x) is int for x in got.tolist())
    assert all(0 < m < 2**26 for m in moduli)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
    # the moduli stop at the first product past 2 * bound
    assert math.prod(moduli) > 2 * bound >= math.prod(moduli[:-1])
    # a 2-D run comes back in its shape
    square = np.array(values[:4], dtype=object).reshape(2, 2)
    lifted = modp.crt_lift(lambda m: (square % m).astype(np.int64), bound)
    assert lifted.shape == (2, 2) and lifted.tolist() == square.tolist()
