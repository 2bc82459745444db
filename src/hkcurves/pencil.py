"""Pencils of (r+1) x r matrices and their reduction to the shift pair.

A pencil (A1, A2) is the family A1 + lambda*A2, lambda running over the
projective line with A2 alone as the point at infinity.  The pencil is
injective when every member has full column rank r; an injective pencil
is equivalent, by exact left/right gauge matrices, to the canonical pair
(S, T) with S the identity stacked on a zero row and T the down-shift.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.ideals import certified_rank
from .exact_algebra.polys import HomogPoly, UniPoly, form_pairs, signed_minors, uni_gcd
from .exact_algebra.scalars import DRAW_SPAN, MAX_DRAWS, ONE, ZERO, GaussianRational, random_gaussian_rows


@functools.lru_cache(maxsize=None)
def canonical_pair(r: int) -> Tuple[ExactMatrix, ExactMatrix]:
    """(S, T): S[i,j] = [i==j], T[i,j] = [i==j+1], both (r+1) x r, built once per r."""
    if r < 1:
        raise ValueError("need r >= 1")
    s_rows = [[ONE if i == j else ZERO for j in range(r)] for i in range(r + 1)]
    t_rows = [[ONE if i == j + 1 else ZERO for j in range(r)] for i in range(r + 1)]
    return ExactMatrix(s_rows), ExactMatrix(t_rows)


def _check_shape(A1: ExactMatrix, A2: ExactMatrix) -> int:
    if A1.shape != A2.shape:
        raise ValueError(f"shape mismatch {A1.shape} vs {A2.shape}")
    rows, cols = A1.shape
    if rows != cols + 1 or cols < 1:
        raise ValueError(f"expected (r+1) x r, got {A1.shape}")
    return cols


def _signed_minors(A1: ExactMatrix, A2: ExactMatrix) -> List[HomogPoly]:
    """Signed maximal minors of x0*A1 + x1*A2: binary forms of degree r.

    The coefficient of x0^(r-k) x1^k is the lambda^k coefficient of the
    signed minor of A1 + lambda*A2, and that of x0^k x1^(r-k) is the
    lambda^k coefficient of the signed minor of A2 + lambda*A1.
    """
    return signed_minors(*form_pairs([A1.integer_form, A2.integer_form]))


def pencil_minors(A1: ExactMatrix, A2: ExactMatrix) -> List[UniPoly]:
    """Maximal minors of A1 + lambda*A2 as polynomials in lambda, degree <= r."""
    r = _check_shape(A1, A2)
    out = []
    for i, m in enumerate(_signed_minors(A1, A2)):
        minor = UniPoly([m.coeffs.get((r - k, k), ZERO) for k in range(r + 1)])
        out.append(-minor if i % 2 else minor)
    return out


@dataclass(frozen=True)
class InjectivityReport:
    ok: bool
    # point (mu, lam) with mu*A1 + lam*A2 of deficient rank, when one is known
    witness: Optional[Tuple[GaussianRational, GaussianRational]]
    # non-constant gcd of the maximal minors, when rank drops at a finite
    # point the gcd does not factor rationally
    minor_gcd: Optional[UniPoly]


def is_injective_pencil(A1: ExactMatrix, A2: ExactMatrix) -> InjectivityReport:
    """Whether every member mu*A1 + lam*A2 has full column rank r.

    Read off the maximal minors of A1 + lambda*A2.  Their lambda^r
    coefficients are the maximal minors of A2, so A2 drops rank (the point
    at infinity) exactly when every minor has degree below r; finite rank
    drops are the roots of the minors' gcd.
    """
    r = _check_shape(A1, A2)
    minors = pencil_minors(A1, A2)
    if all(m.is_zero() for m in minors):
        # rank deficient at every point; lambda = 0 is a concrete witness
        return InjectivityReport(False, (ONE, ZERO), None)
    if all(m.degree < r for m in minors):
        return InjectivityReport(False, (ZERO, ONE), None)
    g = uni_gcd(minors)
    if g.degree == 0:
        return InjectivityReport(True, None, None)
    reduced = g
    while reduced.degree > 1:
        # strip repeated factors; a linear squarefree part gives an exact root
        square_part = uni_gcd([reduced, reduced.derivative()])
        if square_part.degree == 0:
            break
        reduced, rem = reduced.divmod(square_part)
        if not rem.is_zero():
            raise AssertionError("squarefree reduction left a remainder")
    if reduced.degree == 1:
        lam = -(reduced.coeffs[0] / reduced.coeffs[1])
        return InjectivityReport(False, (ONE, lam), g)
    return InjectivityReport(False, None, g)


@dataclass(frozen=True)
class KroneckerReduction:
    P: ExactMatrix  # (r+1) x (r+1)
    Q: ExactMatrix  # r x r
    r: int


def kronecker_reduce(A1: ExactMatrix, A2: ExactMatrix) -> KroneckerReduction:
    """Exact gauge (P, Q) with P*A1*Q = S and P*A2*Q = T.

    Requires an injective pencil.  The left kernel of A2 + lambda*A1 over
    polynomials of degree r is one-dimensional and spanned by its signed
    maximal minors; writing their coefficient rows as c_0..c_r, the rows
    c_k*A1 (k < r) are invertible and conjugate the pair onto (S, -T),
    fixed up by alternating sign flips.

    The closing exact check certifies the result: it forces Q to have
    rank r and, since [S | T] has rank r+1, P to be invertible, so the
    pencil is injective whenever this returns.  Injectivity is tested
    only to word a failed construction.
    """
    r = _check_shape(A1, A2)
    try:
        return _shift_gauge(A1, A2, r)
    except (ValueError, AssertionError):
        report = is_injective_pencil(A1, A2)
        if report.ok:
            raise
        if report.witness is not None:
            mu, lam = report.witness
            raise ValueError(f"pencil drops rank at [{mu}:{lam}]; cannot reduce") from None
        raise ValueError(
            f"pencil drops rank where {report.minor_gcd!r} vanishes; cannot reduce"
        ) from None


def _shift_gauge(A1: ExactMatrix, A2: ExactMatrix, r: int) -> KroneckerReduction:
    """The gauge of kronecker_reduce; raises when a step or the check fails."""
    minors = _signed_minors(A1, A2)
    if all(m.is_zero() for m in minors):
        raise ValueError("all maximal minors vanish; pencil not injective")
    # Row k of `what` holds the lambda^k coefficients of the signed minors of
    # A2 + lambda*A1.  Pairing them with any column is the Laplace expansion
    # of a determinant with a repeated column, so they lie in the left
    # kernel; for an injective pencil that kernel is a line, so these are
    # the c_k of the docstring up to one nonzero scalar.  With the sign
    # flips, P*A2 is P*A1 shifted down a row, P*A1 has a zero last row, and
    # Q inverts the top r rows of P*A1.
    what = [[m.coeffs.get((k, r - k), ZERO) for m in minors] for k in range(r + 1)]
    P = ExactMatrix([[-c for c in row] if k % 2 else row for k, row in enumerate(what)])
    PA1 = P @ A1
    rows, den = PA1.integer_form
    Q = ExactMatrix.from_integer_form(rows[:r], den, r).inverse()
    S, T = canonical_pair(r)
    if PA1 @ Q != S or P @ A2 @ Q != T:
        raise AssertionError("reduction verification failed")
    return KroneckerReduction(P=P, Q=Q, r=r)


def apply_gauge(
    A1: ExactMatrix, A2: ExactMatrix, P: ExactMatrix, Q: ExactMatrix
) -> Tuple[ExactMatrix, ExactMatrix]:
    return P @ A1 @ Q, P @ A2 @ Q


def pair_stabilizer_dimension(A1: ExactMatrix, A2: ExactMatrix) -> int:
    """dim of {(X, Y) : X*Ai + Ai*Y = 0, i = 1, 2}.

    One for the canonical pair: only (zI, -zI) survives, which pins the
    gauge freedom of any further matrices transported along with (S, T).
    """
    r = _check_shape(A1, A2)
    n = r + 1
    # unknowns: X (n x n) flattened first, then Y (r x r)
    num = n * n + r * r
    # a row's entries come from one integer form: D times its Q(i) row, same rank
    sparse = []
    for A, _ in (A1.integer_form, A2.integer_form):
        for i in range(n):
            for j in range(r):
                # columns of X's row i, then of Y's column j: ascending
                x_part = [(i * n + l, *A[l][j]) for l in range(n)]
                y_part = [(n * n + l * r + j, *A[i][l]) for l in range(r)]
                sparse.append([t for t in x_part + y_part if t[1] or t[2]])
    # (zI, -zI) always solves the system, so the kernel holds a line and
    # the rank stays below num
    return num - certified_rank(sparse, num, num - 1)


def random_injective_pencil(r: int, seed: int) -> Tuple[ExactMatrix, ExactMatrix]:
    """Seeded (A1, A2) with every member of full column rank."""
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        mats = [ExactMatrix(random_gaussian_rows(rng, r + 1, r, DRAW_SPAN)) for _k in range(2)]
        if is_injective_pencil(mats[0], mats[1]).ok:
            return mats[0], mats[1]
    raise ValueError("no injective pencil found within the retry bound")
