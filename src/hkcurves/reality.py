"""Real structure: a fixed antiholomorphic involution of projective 3-space.

On points, sigma sends [x0:x1:x2:x3] to [-conj(x1): conj(x0): -conj(x3):
conj(x2)]; it squares to the identity on points and has no fixed points.
On forms it acts by conjugating coefficients and substituting x0 -> -x1,
x1 -> x0, x2 -> -x3, x3 -> x2, so that (sigma f)(p) = conj(f(sigma p)).
`sigma_row`, the one action on forms, reads a form as a minor table's
rows are kept, (re, im) pairs over the monomial basis.

In the canonical pencil gauge (S, T) a matrix pair (A3, A4) cuts out a
sigma-invariant curve exactly when A4 = conj(g0 * A3 * h0), for a fixed
pair (g0, h0) of real anti-diagonal sign matrices.  The library's action on
matrices is `reality_conjugate`, which applies that signed index
permutation to A3's integer form with no product.  Sigma on points and
(g0, h0) as matrices are the tests' references for `sigma_row` and
`reality_conjugate`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence, Tuple

from .exact_algebra.ideals import sparse_row_rank, sparse_rows
from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.polys import monomial_basis, monomial_index
from .exact_algebra.scalars import DRAW_SPAN, first_draw, random_gaussian_pairs
from .pencil import is_injective_pencil


@lru_cache(maxsize=None)
def _sigma_sources(degree: int) -> Tuple[Tuple[int, int], ...]:
    """Per monomial m of the degree, the column of m' = (m1, m0, m3, m2) and
    (-1)^(m1+m3): sigma sends x^m' to that sign times x^m."""
    index = monomial_index(4, degree)
    return tuple((index[m1, m0, m3, m2], (-1) ** (m1 + m3)) for m0, m1, m2, m3 in monomial_basis(4, degree))


def sigma_row(values: Sequence[Sequence[int]], degree: int) -> Tuple[Tuple[int, int], ...]:
    """The pair row of sigma f, over f's denominator, from the dense (re, im)
    pair row of f over monomial_basis(4, degree): a signed monomial
    permutation with conjugation.  Twice, it gives (-1)^degree times the row."""
    sources = _sigma_sources(degree)
    if len(values) != len(sources):
        raise ValueError(f"expected a row of width {len(sources)}, got {len(values)}")
    return tuple((sign * values[c][0], -sign * values[c][1]) for c, sign in sources)


def is_sigma_invariant_ideal(rows: Sequence[Sequence[Sequence[int]]], degree: int) -> bool:
    """True when the span of forms given as dense pair rows of the degree, a
    minor table's `tolist()`, equals the span of their images.

    The span is stable exactly when adjoining the transformed forms does
    not raise its rank; invariance of the curve is a property of the span,
    not of any one generating set.
    """
    images = [sigma_row(row, degree) for row in rows]
    return sparse_row_rank(sparse_rows(rows)) == sparse_row_rank(sparse_rows(list(rows) + images))


def make_sigma_invariant_pencil(r: int, seed: int) -> Tuple[ExactMatrix, ExactMatrix, ExactMatrix, ExactMatrix]:
    """Coefficients (A1..A4) of a random linear matrix whose minor ideal is
    invariant under the involution.

    For odd r the r+1 rows come in pairs (row, image row); for even r the
    r columns pair up instead.  Either way the entrywise image of the
    matrix is a signed block permutation of itself, so the minors span an
    invariant space.  Draws integer coefficients until the leading pencil
    is injective; deterministic per (r, seed).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    rng = random.Random(1000003 * seed + r)
    n = r + 1

    def draw():
        entries = [[None] * r for _ in range(n)]
        # pair k: rows 2k and 2k + 1 for odd r, columns for even r
        for k in range(n // 2):
            for x in range(r if r % 2 else n):
                c = random_gaussian_pairs(rng, 1, 4, DRAW_SPAN)[0]
                if r % 2:
                    entries[2 * k][x], entries[2 * k + 1][x] = c, sigma_row(c, 1)
                else:
                    entries[x][2 * k], entries[x][2 * k + 1] = c, sigma_row(c, 1)
        return tuple(
            ExactMatrix.from_integer_form(tuple(tuple(c[v] for c in row) for row in entries), 1, r)
            for v in range(4)
        )

    return first_draw("injective pencil", draw, lambda mats: is_injective_pencil(*mats[:2]).ok, r=r, seed=seed)


def reality_conjugate(A3: ExactMatrix) -> ExactMatrix:
    """The antilinear involution-up-to-sign tau(B) = conj(g0 B h0); tau^2 = -id.
    Entry (i, j) is conj((-1)^(i+j+1) B[r-i][r-1-j]), over B's denominator."""
    r = A3.cols
    if A3.rows != r + 1:
        raise ValueError(f"expected (r+1) x r, got {A3.shape}")
    rows, den = A3.integer_form
    out = tuple(
        tuple((a, -b) if (i + j) % 2 else (-a, b) for j, (a, b) in enumerate(reversed(rows[r - i])))
        for i in range(r + 1)
    )
    return ExactMatrix.from_integer_form(out, den, r)
