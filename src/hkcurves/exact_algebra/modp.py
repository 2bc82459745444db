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

# NTT primes, all 1 mod 4 and below 2^30, so (p-1)^2 < 2^60 fits in int64
_PRIME_ROOTS = ((998244353, 3), (754974721, 11), (167772161, 3))


def _sqrt_minus_one(p: int, g: int) -> int:
    s = pow(g, (p - 1) // 4, p)
    if (s * s + 1) % p != 0:
        raise AssertionError(f"{g} is not a primitive root mod {p}")
    return s


PRIMES: Tuple[Tuple[int, int], ...] = tuple(
    (p, _sqrt_minus_one(p, g)) for p, g in _PRIME_ROOTS
)


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

    Entries are below p < 2^30, so a product is below 2^60.  Each pass adds
    at most 8 unreduced products to a reduced partial sum:
    8 (p-1)^2 + (p-1) < 2^63, so no int64 sum overflows.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, a.shape[1], 8):
        out = (out + a[:, k : k + 8] @ b[k : k + 8]) % p
    return out


def rank_mod(matrix: np.ndarray, p: int, stop_rank: int | None = None) -> int:
    """Row-reduce in place mod p; returns the rank (early exit at stop_rank)."""
    m = matrix
    nrows, ncols = m.shape
    rank = 0
    for c in range(ncols):
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
        rank += 1
    return rank


def rref_mod(matrix: np.ndarray, p: int) -> Tuple[List[int], np.ndarray]:
    """Reduced row echelon form mod p, in place: (pivot columns, the rank rows).

    Pivots are taken column by column from the left, so they are the first
    columns independent mod p.  Each pivot row is monic and zero at the
    other pivots; rows at or below the current rank are zero left of the
    current column, so an update touches only the columns from there on.
    """
    m = matrix
    nrows, ncols = m.shape
    pivots: List[int] = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        m[rank, c:] = m[rank, c:] * pow(int(m[rank, c]), p - 2, p) % p
        col = m[:, c].copy()
        col[rank] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(col[hit], m[rank, c:])) % p
        pivots.append(c)
    return pivots, m[: len(pivots)]


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
