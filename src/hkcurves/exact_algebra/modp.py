"""Modular rank computations used as one side of a rank sandwich.

For a matrix over Q(i) whose entries reduce mod p (p prime, p = 1 mod 4 so
i has an image), rank mod p never exceeds the exact rank.  Callers that
already hold a proven upper bound can therefore certify the exact rank by
hitting the bound modulo a single prime.  A prime that misses the bound
proves nothing; callers retry or fall back to exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence, Tuple

import numpy as np

from .scalars import GaussianRational

# NTT primes, all 1 mod 4, small enough that (p-1)^2 fits in int64
_PRIME_ROOTS = ((998244353, 3), (754974721, 11), (167772161, 3))


def _sqrt_minus_one(p: int, g: int) -> int:
    s = pow(g, (p - 1) // 4, p)
    if (s * s + 1) % p != 0:
        raise AssertionError(f"{g} is not a primitive root mod {p}")
    return s


PRIMES: Tuple[Tuple[int, int], ...] = tuple(
    (p, _sqrt_minus_one(p, g)) for p, g in _PRIME_ROOTS
)


class BadPrime(ValueError):
    """Entry denominator vanishes mod p; the reduction map is undefined."""


def _fraction_mod(q: Fraction, p: int) -> int:
    den = q.denominator % p
    if den == 0:
        raise BadPrime(f"denominator {q.denominator} divisible by {p}")
    return (q.numerator % p) * pow(den, p - 2, p) % p


def value_mod(v: GaussianRational, p: int, s: int) -> int:
    return (_fraction_mod(v.re, p) + s * _fraction_mod(v.im, p)) % p


def rows_mod(
    rows: Sequence[Sequence[Tuple[int, GaussianRational]]],
    ncols: int,
    p: int,
    s: int,
) -> np.ndarray:
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for col, v in row:
            out[i, col] = value_mod(v, p, s)
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


def ranks_mod(
    rows: Sequence[Sequence[Tuple[int, GaussianRational]]],
    ncols: int,
    stop_rank: int | None = None,
) -> Iterator[int]:
    """Rank of the rows mod each prime of PRIMES in turn, skipping bad primes."""
    for p, s in PRIMES:
        try:
            m = rows_mod(rows, ncols, p, s)
        except BadPrime:
            continue
        yield rank_mod(m, p, stop_rank)


def sparse_rank_certificate(
    rows: Sequence[Sequence[Tuple[int, GaussianRational]]],
    ncols: int,
    upper_bound: int,
) -> bool:
    """True iff some prime exhibits rank == upper_bound (then exact rank == bound).

    rank mod p <= exact rank <= upper_bound for every usable prime p, so a
    modular rank at the bound pins the exact rank, and one above it proves
    the bound false: that raises ArithmeticError.  False means no tried
    prime reached the bound; the exact rank may still equal it, so the
    caller must recheck exactly before concluding anything.
    """
    for rank in ranks_mod(rows, ncols, upper_bound + 1):
        if rank > upper_bound:
            raise ArithmeticError(f"rank {rank} mod p exceeds certified bound {upper_bound}")
        if rank == upper_bound:
            return True
    return False
