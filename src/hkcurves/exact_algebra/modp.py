"""Modular ranks, used as the lower side of a rank sandwich.

For a Gaussian-integer matrix reduced mod p (p prime, p = 1 mod 4, i sent
to a square root s of -1), rank mod p never exceeds the exact rank.  A
caller that already holds a proven upper bound can therefore certify the
exact rank by hitting the bound modulo a single prime
(`sparse_rank_certificate`).  A prime that misses the bound proves nothing,
and exact arithmetic decides.  `ideals.certified_rank` pairs the two, and
it is the only caller of `sparse_rank_certificate`: no other module tries
the primes of `PRIMES` itself.  Ranks are what callers
read; the one echelon that leaves this module is `kernel_mod`'s right
kernel of a small matrix, which a caller uses to eliminate a block mod p
before it hands the remaining matrix back for its rank.  No product mod p
leaves it.

Rows arrive in the Gaussian-integer row format of `ideals`, and no Q(i)
value is built here; `crt_lift` lifts the Laplace kernel past int64.

The rank kernel `_eliminate` takes two pivot columns per round wherever
their top 2 x 2 block is invertible mod p, and one otherwise, with the
pivots of one-column elimination either way; the int64 entries are
reduced once per `budget(p)` products, a two-column round counting two.

Windows of prefixes rest on two facts.  Pivot prefixes: `_eliminate`
takes the first columns that are independent mod p, and its two-column
steps take the same pivots as one-column steps, so the number of its
pivots below column w is rank_p(M[:, :w]) for every w.  One elimination
therefore ranks every column prefix of a matrix, and
`sparse_rank_certificate` certifies a window of prefixes, each against its
own bound, from one elimination per prime.  Nesting: in the band matrix of
a rational map at twist T (`rational_curve._FormRows.ranks`), the columns
of coefficient index k <= col_degree_m(c) are s^(T-m) times the columns at
twist m <= T; multiplication by s^(T-m) commutes with the band map and is
injective on coefficient vectors, so they are the twist-m matrix with its
rows relabelled and zero rows added, of the same rank over Q(i) and mod p.
Ordered by (k - col_degree_T(c), c), the lower twists are column prefixes.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

# primes = 1 mod 4 below 2^26, each with a quadratic non-residue g, so that
# g^((p-1)/4) is a square root of -1 (the image of i); budget(p) = 2048
_PRIME_ROOTS = ((67108837, 2), (67108777, 5), (67108757, 2))


def _sqrt_minus_one(p: int, g: int) -> int:
    s = pow(g, (p - 1) // 4, p)
    if (s * s + 1) % p != 0:
        raise AssertionError(f"{g} is not a quadratic non-residue mod {p}")
    return s


PRIMES: Tuple[Tuple[int, int], ...] = tuple(
    (p, _sqrt_minus_one(p, g)) for p, g in _PRIME_ROOTS
)


def budget(p: int) -> int:
    """How many products of reduced entries an int64 may take unreduced.

    With |x| < p and t products each in [0, (p-1)^2], every partial sum or
    difference stays within t (p-1)^2 + p <= 2^63 - 1 for t <= budget(p).
    """
    return (2**63 - 1 - p) // (p - 1) ** 2


SparseRows = Sequence[Sequence[Tuple[int, int, int]]]


def rows_mod(rows: SparseRows, ncols: int, p: int, s: int) -> np.ndarray:
    """Dense reduction of Gaussian-integer rows of (column, a, b) triples:
    a + b*i goes to (a + s*b) mod p.

    Each row is a nonzero multiple of the Q(i) row it stands for, so the
    integer matrix has the exact rank of the Q(i) one, and Z[i] -> Z/p with
    i -> s is a ring map: a minor that is nonzero mod p is nonzero, so rank
    mod p <= exact rank still holds.  That holds too for a prime that
    divides a row's scale (a denominator of its Q(i) entries): such a prime
    can only lower the modular rank, and the caller then tries the next
    prime or the exact route.
    """
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    # reduced with Python ints, as entries may exceed int64, then one scatter
    rows_idx = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    cols_idx = [col for row in rows for col, _, _ in row]
    out[rows_idx, cols_idx] = [(a + s * b) % p for row in rows for _, a, b in row]
    return out


def _eliminate(m: np.ndarray, p: int, stop: int | None) -> List[int]:
    """Gaussian elimination mod p in place with delayed reduction; returns
    the pivot columns.

    Pivots are taken column by column from the left, so they are the first
    columns independent mod p; elimination stops once `stop` pivots are
    found.  A step reads no column left of its own again: there the rows
    below the rank are zero mod p.  It updates only the columns right of
    its pivots, and reduces nothing there.

    A block step takes columns c and c+1 at once when both are left, `stop`
    allows two more pivots and the top 2 x 2 block B = [[a, b], [e, d]] of
    the reduced panel m[rank:, c:c+2] is invertible mod p.  The rows below
    get multipliers F = panel * B^-1 (B^-1 the adjugate over ad - be), so
    subtracting F times the two pivot rows clears both columns, in one
    matrix product.  The one-column steps would take the same two pivots:
    with a != 0 the second one meets the Schur entry (ad - be)/a != 0, and
    with a = 0 both e and b are nonzero.  Each route leaves every row below
    minus the one combination of the two pivot rows that clears columns c
    and c+1, so all later pivots agree.

    Otherwise a single step reduces the pivot column, to find the pivot,
    and the pivot row, which it makes monic, and subtracts col * row from
    the rows below the pivot that the column hits.

    Soundness of the int64 arithmetic: the entries start with |x| < p.  A
    single step subtracts one product in [0, (p-1)^2], and a block step,
    whose F and pivot rows are reduced to [0, p), a sum of two such products,
    so it counts as two steps.  After t counted steps |x| < t (p-1)^2 + p.
    The rows a step may update are reduced first when its count would take
    t past budget(p) = (2^63 - 1 - p) // (p-1)^2, so t (p-1)^2 + p <=
    2^63 - 1 and no entry overflows; the same bound with t = 2 covers the
    products that form F.  A block step needs budget(p) >= 2, so with a
    budget of 1 only single steps run.
    """
    nrows, ncols = m.shape
    limit = nrows if stop is None else min(stop, nrows)
    step = budget(p)
    pending = 0
    pivots: List[int] = []
    c = 0
    while c < ncols:
        rank = len(pivots)
        if rank >= limit:
            break
        if step >= 2 and rank + 2 <= limit and c + 1 < ncols:
            panel = m[rank:, c : c + 2] % p
            (a, b), (e, d) = panel[:2].tolist()
            det = (a * d - b * e) % p
            if det:
                pivots += [c, c + 1]
                c += 2
                if c == ncols or rank + 2 == nrows:
                    continue
                if pending + 2 > step:
                    m[rank:, c:] %= p
                    pending = 0
                pending += 2
                inv = pow(det, -1, p)
                adj = np.array([[d * inv % p, -b * inv % p], [-e * inv % p, a * inv % p]])
                f = panel[2:] @ adj % p
                m[rank + 2 :, c:] -= f @ (m[rank : rank + 2, c:] % p)
                continue
            col = panel[:, 0]
        else:
            col = m[rank:, c] % p
        pivot, c = c, c + 1
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        first = int(nz[0])
        inv = pow(int(col[first]), -1, p)
        # col[0] is the pivot row's and stays out of the update; the row
        # swapped down from there was zero in this column
        col[first] = 0
        if first:
            m[[rank, rank + first]] = m[[rank + first, rank]]
        row = m[rank, c:] % p * inv % p
        pivots.append(pivot)
        hit = nz[1:]
        if hit.size == 0 or c == ncols:
            continue
        if pending == step:
            m[rank:, c:] %= p
            pending = 0
        pending += 1
        view = m[rank:, c:]
        if 2 * hit.size > len(col):
            view -= col[:, None] * row
        else:
            view[hit] -= col[hit, None] * row
    return pivots


def rank_mod(matrix: np.ndarray, p: int, stop_rank: int | None = None) -> int:
    """Rank mod p of a matrix with |entries| < p, by `_eliminate` in place
    (early exit at stop_rank)."""
    return len(_eliminate(matrix, p, stop_rank))


def kernel_mod(matrix: np.ndarray, p: int) -> np.ndarray:
    """Right kernel mod p of a matrix with entries in [0, p): the ncols x
    (ncols - rank) matrix K with M*K = 0 mod p, entries in [0, p), from the
    reduced echelon form.  Column f of K is 1 at the f-th free (non-pivot)
    column, 0 at the other free ones and minus the echelon's entry at each
    pivot, so K has an identity block on the free columns.

    Meant for small matrices: each pivot reduces every row.  The entries
    stay in [0, p) between steps, so a step's products are below p^2 < 2^52
    and int64 is safe.
    """
    m = matrix.copy()
    nrows, ncols = m.shape
    pivots: List[int] = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nz = m[rank:, c].nonzero()[0]
        if nz.size == 0:
            continue
        first = rank + int(nz[0])
        if first != rank:
            m[[rank, first]] = m[[first, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), -1, p) % p
        col = m[:, c].copy()
        col[rank] = 0
        m = (m - col[:, None] * m[rank]) % p
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = np.zeros((ncols, len(free)), dtype=np.int64)
    kernel[free, np.arange(len(free))] = 1
    kernel[pivots] = -m[: len(pivots), free] % p
    return kernel


# a level: the matrix reduced at p, or (k, M) when k pivots mod p are
# already found by block elimination and M is what is left to rank
Level = Union[np.ndarray, Tuple[int, np.ndarray]]


class Verdicts(tuple):
    """One verdict per column prefix; true when every prefix is certified,
    as a single verdict is."""

    def __bool__(self) -> bool:
        return all(self)


def sparse_rank_certificate(
    upper_bound: int | Sequence[int],
    level: Callable[[int, int], Level],
    widths: Optional[Sequence[int]] = None,
) -> Union[bool, Verdicts]:
    """True iff some prime exhibits rank == upper_bound (then exact rank == bound).

    `level(p, s)` returns the matrix reduced at p, whose rank mod p is
    rank_mod of it, or a pair (k, M) for a matrix whose rank mod p is
    k + rank_mod(M).  rank mod p <= exact rank <= upper_bound for every
    prime p, so a modular rank at the bound pins the exact rank, and one
    above it proves the bound false: that raises ArithmeticError.  False
    means no tried prime reached the bound; the exact rank may still equal
    it, so the caller must recheck exactly before concluding anything.

    With `widths`, `upper_bound` holds one bound per column prefix
    M[:, :w], w in `widths`, of the matrix that `level` returns (a matrix,
    not a pair), and the result is the `Verdicts` of the prefixes.  Each
    prime runs one `_eliminate`, whose pivots below w number rank_p(M[:, :w])
    (pivot prefixes, see the module docstring), until every prefix has met
    its bound at some prime.  It stops one pivot past the largest bound
    still open: a prefix it did not reach holds that many pivots, more than
    its bound.
    """
    bounds = [upper_bound] if widths is None else list(upper_bound)
    met = [False] * len(bounds)
    for p, s in PRIMES:
        found = level(p, s)
        known, rest = found if isinstance(found, tuple) else (0, found)
        stop = max(b for b, ok in zip(bounds, met) if not ok) + 1 - known
        if widths is None:
            ranks = [known + rank_mod(rest, p, stop)]
        else:
            pivots = _eliminate(rest, p, stop)
            ranks = [bisect_left(pivots, w) for w in widths]
        for j, (rank, bound) in enumerate(zip(ranks, bounds)):
            if met[j]:
                continue
            if rank > bound:
                raise ArithmeticError(f"rank {rank} mod p exceeds certified bound {bound}")
            met[j] = rank == bound
        if all(met):
            break
    return met[0] if widths is None else Verdicts(met)


def crt_lift(run: Callable[[int | None], np.ndarray], bound: int) -> np.ndarray:
    """The array x, |x| <= bound, that `run` computes: `run(None)` in int64
    when bound <= 2^63 - 1, else the lift into (-M/2, M/2], as exact ints,
    of the residues x mod m = `run(m)` over pairwise coprime m < 2^26,
    counted down from 2^26 (not `PRIMES`) until their product M > 2 * bound,
    one Garner digit per m (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 5).  Sound as x -> x mod m is a ring map, so a run that
    adds, subtracts and multiplies gives x mod m, and |x| <= bound < M/2.
    In a run, values in (-m, m) multiply to below 2^52, so int64 holds a
    sum of 2^11 products: `polys` sums 2 (k+1) n per value at depth k of
    `laplace` and 2 R n in `column_combinations`, <= 2^11 while R n <= 2^10.
    """
    if bound <= 2**63 - 1:
        return run(None)
    lifted, total, m = np.zeros((), dtype=object), 1, 2**26
    while total <= 2 * bound:
        m -= 1
        if gcd(m, total) == 1:
            lifted = lifted + total * ((run(m) - lifted % m) * pow(total, -1, m) % m)
            total *= m
    return np.where(2 * lifted > total, lifted - total, lifted)
