"""Modular rank computations used as one side of a rank sandwich.

For a matrix over Q(i) whose entries reduce mod p (p prime, p = 1 mod 4 so
i has an image), rank mod p never exceeds the exact rank.  Callers that
already hold a proven upper bound can therefore certify the exact rank by
hitting the bound modulo a single prime.  A prime that misses the bound
proves nothing; callers retry or fall back to exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .scalars import GaussianRational

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


SparseRows = Sequence[Sequence[Tuple[int, GaussianRational]]]


class BadPrime(ValueError):
    """The reduction at p is unusable: an entry denominator vanishes mod p,
    so the reduction map is undefined, or a level loses rank mod p."""


def _fraction_mod(q: Fraction, p: int) -> int:
    den = q.denominator % p
    if den == 0:
        raise BadPrime(f"denominator {q.denominator} divisible by {p}")
    return (q.numerator % p) * pow(den, p - 2, p) % p


def value_mod(v: GaussianRational, p: int, s: int) -> int:
    return (_fraction_mod(v.re, p) + s * _fraction_mod(v.im, p)) % p


def rows_mod(rows: SparseRows, ncols: int, p: int, s: int) -> np.ndarray:
    """Dense reduction of sparse rows; entries as `value_mod`, one inverse per denominator."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    inverses = {1: 1}

    def part(q: Fraction) -> int:
        den = q.denominator
        inv = inverses.get(den)
        if inv is None:
            if den % p == 0:
                raise BadPrime(f"denominator {den} divisible by {p}")
            inv = inverses[den] = pow(den % p, p - 2, p)
        return (q.numerator % p) * inv % p

    for i, row in enumerate(rows):
        for col, v in row:
            out[i, col] = (part(v.re) + s * part(v.im)) % p
    return out


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for reduced int64 matrices.

    Each pass adds at most budget(p) unreduced products to a reduced partial
    sum, then reduces once, so no int64 sum overflows (see `budget`).
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = budget(p)
    for k in range(0, a.shape[1], step):
        out = (out + a[:, k : k + step] @ b[k : k + step]) % p
    return out


def _eliminate(m: np.ndarray, p: int, stop: int | None, reduce_above: bool) -> List[int]:
    """Gaussian elimination mod p in place with delayed reduction; returns
    the pivot columns.

    Pivots are taken column by column from the left, so they are the first
    columns independent mod p; elimination stops once `stop` pivots are
    found.  Each step reduces only the pivot column, to find the pivot, and
    the pivot row, which it makes monic.  It then subtracts col * row from
    the rows the column hits (every row but the pivot's with reduce_above,
    else the rows below it), on the columns right of the pivot only, and
    reduces nothing there.  No step reads a column left of its own again:
    there the rows below the rank are zero mod p, and `rref_mod` writes the
    rank rows' pivot entries itself.

    Soundness of the int64 arithmetic: the entries start with |x| < p, and
    each step subtracts a product in [0, (p-1)^2], so after t steps
    |x| < t (p-1)^2 + p.  The rows a step may update are reduced once
    t = budget(p) = (2^63 - 1 - p) // (p-1)^2 steps have run since the
    last reduction, so t (p-1)^2 + p <= 2^63 - 1 and no entry overflows.
    """
    nrows, ncols = m.shape
    limit = nrows if stop is None else min(stop, nrows)
    step = budget(p)
    pending = 0
    pivots: List[int] = []
    for c in range(ncols):
        rank = len(pivots)
        if rank >= limit:
            break
        col = m[rank:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        first = int(nz[0])
        inv = pow(int(col[first]), p - 2, p)
        # col[0] is the pivot row's and stays out of the update; the row
        # swapped down from there was zero in this column
        col[first] = 0
        if first:
            m[[rank, rank + first]] = m[[rank + first, rank]]
        row = m[rank, c + 1 :] % p * inv % p
        pivots.append(c)
        if reduce_above:
            m[rank, c + 1 :] = row
            lo = 0
            col = np.concatenate((m[:rank, c] % p, col))
            hit = col.nonzero()[0]
        else:
            lo = rank
            hit = nz[1:]
        if hit.size == 0 or c + 1 == ncols:
            continue
        if pending == step:
            m[lo:, c + 1 :] %= p
            pending = 0
        pending += 1
        view = m[lo:, c + 1 :]
        if 2 * hit.size > len(col):
            view -= np.outer(col, row)
        else:
            view[hit] -= np.outer(col[hit], row)
    return pivots


def rank_mod(matrix: np.ndarray, p: int, stop_rank: int | None = None) -> int:
    """Rank mod p of a matrix with |entries| < p, by `_eliminate` in place
    (early exit at stop_rank)."""
    return len(_eliminate(matrix, p, stop_rank, False))


def rref_mod(matrix: np.ndarray, p: int) -> Tuple[List[int], np.ndarray]:
    """Reduced row echelon form mod p, in place: (pivot columns, the rank rows).

    `_eliminate` clears each pivot column above and below the pivot, so the
    rank rows need one reduction at the end; their pivot columns, which it
    never writes, are the identity.
    """
    pivots = _eliminate(matrix, p, None, True)
    rows = matrix[: len(pivots)]
    rows %= p
    rows[:, pivots] = np.eye(len(pivots), dtype=np.int64)
    return pivots, rows


def each_prime(reduce: Callable[[int, int], object]) -> Iterator[Tuple[int, object]]:
    """(p, reduce(p, s)) for each prime of PRIMES in turn, skipping a prime
    at which reduce raises BadPrime."""
    for p, s in PRIMES:
        try:
            reduced = reduce(p, s)
        except BadPrime:
            continue
        yield p, reduced


def sparse_rank_certificate(
    rows: Optional[SparseRows],
    ncols: int,
    upper_bound: int,
    level: Optional[Callable[[int, int], np.ndarray]] = None,
) -> bool:
    """True iff some prime exhibits rank == upper_bound (then exact rank == bound).

    rank mod p <= exact rank <= upper_bound for every usable prime p, so a
    modular rank at the bound pins the exact rank, and one above it proves
    the bound false: that raises ArithmeticError.  False means no tried
    prime reached the bound; the exact rank may still equal it, so the
    caller must recheck exactly before concluding anything.  `level(p, s)`,
    if given, returns the rows already reduced at p (or raises BadPrime) in
    place of rows_mod(rows, ncols, p, s).
    """
    for p, m in each_prime(level or (lambda p, s: rows_mod(rows, ncols, p, s))):
        rank = rank_mod(m, p, upper_bound + 1)
        if rank > upper_bound:
            raise ArithmeticError(f"rank {rank} mod p exceeds certified bound {upper_bound}")
        if rank == upper_bound:
            return True
    return False
