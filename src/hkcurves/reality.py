"""Real structure: a fixed antiholomorphic involution of projective 3-space.

On points, sigma sends [x0:x1:x2:x3] to [-conj(x1): conj(x0): -conj(x3):
conj(x2)]; it squares to the identity on points and has no fixed points.
On forms it acts by conjugating coefficients and substituting x0 -> -x1,
x1 -> x0, x2 -> -x3, x3 -> x2, so that (sigma f)(p) = conj(f(sigma p)).

In the canonical pencil gauge (S, T) a matrix pair (A3, A4) cuts out a
sigma-invariant curve exactly when A4 = conj(g0 * A3 * h0), for a fixed
pair (g0, h0) of real anti-diagonal sign matrices.  The library's action on
matrices is `reality_conjugate`, which applies that signed index
permutation to A3's integer form with no product.  Sigma on points and
(g0, h0) as matrices are the tests' references for `sigma_form` and
`reality_conjugate`.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from .exact_algebra.ideals import GradedIdeal
from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.polys import HomogPoly
from .exact_algebra.scalars import DRAW_SPAN, first_draw, random_gaussian_pairs
from .pencil import is_injective_pencil


def sigma_form(f: HomogPoly) -> HomogPoly:
    """Pullback on forms; applied twice gives (-1)^degree times the form."""
    if f.num_vars != 4:
        raise ValueError("expected a form in 4 variables")
    terms = {}
    for (m0, m1, m2, m3), (a, b) in f.terms.items():
        # conj(a + b*i), negated where m0 + m2 is odd; no two monomials merge
        terms[(m1, m0, m3, m2)] = (-a, b) if (m0 + m2) % 2 else (a, -b)
    return HomogPoly(4, f.degree, terms, f.den)


def is_sigma_invariant_ideal(generators: Sequence[HomogPoly], degree: int) -> bool:
    """True when the span of the generators equals the span of their images.

    The span is stable exactly when adjoining the transformed forms does
    not grow the degree piece; invariance of the curve is a property of
    the span, not of any one generating set.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("no generators")
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator of degree {g.degree}, stated degree {degree}")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    base = GradedIdeal(gens).dimension(degree)
    both = GradedIdeal(gens + [sigma_form(g) for g in gens]).dimension(degree)
    return base == both


def _sigma_linear_coeffs(c: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[int, int], ...]:
    """Sigma on the (re, im) pairs of linear forms: c -> (conj c1, -conj c0, conj c3, -conj c2)."""
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = c
    return ((a1, -b1), (-a0, b0), (a3, -b3), (-a2, b2))


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
                    entries[2 * k][x], entries[2 * k + 1][x] = c, _sigma_linear_coeffs(c)
                else:
                    entries[x][2 * k], entries[x][2 * k + 1] = c, _sigma_linear_coeffs(c)
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
