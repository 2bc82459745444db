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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .exact_algebra import modp
from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.ideals import Row, certified_rank
from .exact_algebra.polys import UniPoly, binary_common_zero, form_pairs, signed_minor_table
from .exact_algebra.scalars import DRAW_SPAN, ONE, ZERO, GaussianRational, first_draw, random_gaussian_rows


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


# T[i][j] = (a, b): the numerators of the lambda^j coefficient of signed minor i
MinorTable = Tuple[Tuple[Tuple[int, int], ...], ...]


def _minor_table(A1: ExactMatrix, A2: ExactMatrix) -> Tuple[MinorTable, int]:
    """(T, D^r) from one Laplace pass: the signed maximal minors of
    x0*A1 + x1*A2 over D^r, column j at x0^(r-j) x1^j, so the lambda^j
    coefficients of those of A1 + lambda*A2; column r - k holds the
    lambda^k coefficients of those of A2 + lambda*A1."""
    return _form_minor_table(A1.integer_form, A2.integer_form, A1.cols)


# One entry: a drawn pencil is tested for injectivity, then reduced, so the
# reduction reads the table its draw built.  T is tuples, so no caller can
# change the table another one reads.
@functools.lru_cache(maxsize=1)
def _form_minor_table(form1: tuple, form2: tuple, r: int) -> Tuple[MinorTable, int]:
    X, den = form_pairs([form1, form2])
    return tuple(tuple(map(tuple, row)) for row in signed_minor_table(X).tolist()), den**r


def _uni_minors(T: MinorTable, den: int) -> List[UniPoly]:
    """The maximal minors of A1 + lambda*A2 as polynomials in lambda, from
    the table of `_minor_table`: the sign of row i undone, over den."""
    return [UniPoly([GaussianRational.over(a, b, (-1) ** i * den) for a, b in row]) for i, row in enumerate(T)]


def pencil_minors(A1: ExactMatrix, A2: ExactMatrix) -> List[UniPoly]:
    """Maximal minors of A1 + lambda*A2 as polynomials in lambda, degree <= r."""
    _check_shape(A1, A2)
    return _uni_minors(*_minor_table(A1, A2))


def minor_coefficient_rank(T: Sequence[Sequence[Tuple[int, int]]]) -> int:
    """Certified rank of T, whose row k holds the Gaussian-integer numerators
    of signed minor k of x0*A1 + x1*A2 at x0^(r-j) x1^j: r + 1 exactly when
    the pencil is injective (`certified_rank`, bound r + 1).

    If T is invertible, the minors span x0^r and x1^r, which share no zero.
    Conversely an injective pencil is one Kronecker block L_r^T (Gantmacher,
    Theory of Matrices II, ch. XII): a gauge (P, Q) of the `canonical_pair`,
    whose minors are the monomials up to sign.  By Cauchy-Binet the gauge
    mixes them by the r-th exterior power of P and scales them by det Q,
    both invertible.  Row scales, the minors' denominators, keep the rank.
    """
    rows = [[(j, a, b) for j, (a, b) in enumerate(row) if a or b] for row in T]
    return certified_rank(rows, len(T), len(T))


@dataclass(frozen=True)
class InjectivityReport:
    ok: bool
    # point (mu, lam) with mu*A1 + lam*A2 of deficient rank, when one is known
    witness: Optional[Tuple[GaussianRational, GaussianRational]]
    # monic gcd of the maximal minors in lambda, with or without a witness,
    # when the pencil drops rank and some minor keeps its lambda^r term
    minor_gcd: Optional[UniPoly]


def is_injective_pencil(A1: ExactMatrix, A2: ExactMatrix) -> InjectivityReport:
    """Whether every member mu*A1 + lam*A2 has full column rank r.

    Read off the maximal minors of A1 + lambda*A2.  Their lambda^r
    coefficients are the maximal minors of A2, so A2 drops rank (the point
    at infinity) exactly when every minor has degree below r.  Injectivity
    is `minor_coefficient_rank`; a pencil that fails it takes its witness
    and the minors' exact gcd from `polys.binary_common_zero`.
    """
    _check_shape(A1, A2)
    return _injectivity(_minor_table(A1, A2)[0])


def _injectivity(T: MinorTable) -> InjectivityReport:
    """`is_injective_pencil` on the table T of `_minor_table`."""
    if minor_coefficient_rank(T) == len(T):
        return InjectivityReport(True, None, None)
    return InjectivityReport(False, *binary_common_zero(T))


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
    T, den = _minor_table(A1, A2)
    try:
        return _shift_gauge(A1, A2, r, T, den)
    except (ValueError, AssertionError):
        report = _injectivity(T)
        if report.ok:
            raise
        if report.witness is not None:
            mu, lam = report.witness
            raise ValueError(f"pencil drops rank at [{mu}:{lam}]; cannot reduce") from None
        raise ValueError(
            f"pencil drops rank where {report.minor_gcd!r} vanishes; cannot reduce"
        ) from None


def _shift_gauge(A1: ExactMatrix, A2: ExactMatrix, r: int, T: MinorTable, den: int) -> KroneckerReduction:
    """The gauge of kronecker_reduce from the minor table (T, den) of
    `_minor_table`; raises when a step or the check fails.

    `inverse` certifies M*Q = I for the top r rows M of P*A1, so Q is
    invertible with inverse M.  Hence P*A1*Q = S exactly when the last row
    of P*A1 is zero, and P*A2*Q is the down-shift exactly when row 0 of
    P*A2 is zero and row k+1 is row k of M, over the two denominators.
    Both are checked in place of products with Q.
    """
    if not any(a or b for row in T for a, b in row):
        raise ValueError("all maximal minors vanish; pencil not injective")
    # Row k of P holds the lambda^k coefficients of the signed minors of
    # A2 + lambda*A1, column r - k of T, negated on odd k.  Pairing them with
    # any column is the Laplace expansion of a determinant with a repeated
    # column, so they lie in the left kernel; for an injective pencil that
    # kernel is a line, so these are the c_k of the docstring up to one
    # nonzero scalar.  With the sign flips, P*A2 is P*A1 shifted down a row,
    # P*A1 has a zero last row, and Q inverts the top r rows of P*A1.  P is
    # born in its integer form, over the table's D^r.
    form = tuple(tuple(tuple((-1) ** k * x for x in row[r - k]) for row in T) for k in range(r + 1))
    P = ExactMatrix.from_integer_form(form, den, r + 1)
    rows, den = (P @ A1).integer_form
    M = ExactMatrix.from_integer_form(rows[:r], den, r)
    Q = M.inverse()
    shifted, shifted_den = (P @ A2).integer_form
    if (
        any(a or b for a, b in rows[r] + shifted[0])
        or ExactMatrix.from_integer_form(shifted[1:], shifted_den, r) != M
    ):
        raise AssertionError("reduction verification failed")
    return KroneckerReduction(P=P, Q=Q, r=r)


def apply_gauge(
    A1: ExactMatrix, A2: ExactMatrix, P: ExactMatrix, Q: ExactMatrix
) -> Tuple[ExactMatrix, ExactMatrix]:
    return P @ A1 @ Q, P @ A2 @ Q


def _stabilizer_rows(A1: ExactMatrix, A2: ExactMatrix) -> List[Row]:
    """The system X*Ai + Ai*Y = 0 as Gaussian-integer rows: unknowns X
    (n x n) flattened first, then Y (r x r).  A row's entries come from one
    integer form: D times its Q(i) row, same rank."""
    n, r = A1.shape
    sparse = []
    for A, _ in (A1.integer_form, A2.integer_form):
        for i in range(n):
            for j in range(r):
                # columns of X's row i, then of Y's column j: ascending
                x_part = [(i * n + l, *A[l][j]) for l in range(n)]
                y_part = [(n * n + l * r + j, *A[i][l]) for l in range(r)]
                sparse.append([t for t in x_part + y_part if t[1] or t[2]])
    return sparse


def _stabilizer_level(A1: ExactMatrix, A2: ExactMatrix) -> Callable[[int, int], Tuple[int, np.ndarray]]:
    """The `modp.sparse_rank_certificate` level of `_stabilizer_rows`: at
    (p, s), the pair (n * rho, W) of `pair_stabilizer_dimension`, from the
    same integer forms reduced mod p."""
    n, r = A1.shape
    # B = [A1 | A2], n x 2r, as rows of (column, a, b) triples
    joined = [
        [(j, a, b) for j, (a, b) in enumerate(row1 + row2)]
        for row1, row2 in zip(A1.integer_form[0], A2.integer_form[0])
    ]

    def level(p: int, s: int) -> Tuple[int, np.ndarray]:
        B = modp.rows_mod(joined, 2 * r, p, s)
        K = modp.kernel_mod(B, p)
        free = K.shape[1]
        # W[(i, w), (l, j)] = A1[i, l] K[j, w] + A2[i, l] K[r + j, w]: each
        # product is below p^2 < 2^52, so the sum of two fits an int64
        W = np.einsum("itl,tjw->iwlj", B.reshape(n, 2, r), K.reshape(2, r, free))
        return n * (2 * r - free), W.reshape(n * free, r * r) % p

    return level


def pair_stabilizer_dimension(A1: ExactMatrix, A2: ExactMatrix) -> int:
    """dim of {(X, Y) : X*Ai + Ai*Y = 0, i = 1, 2}.

    One for the canonical pair: only (zI, -zI) survives, which pins the
    gauge freedom of any further matrices transported along with (S, T).

    (zI, -zI) always solves the system, so its rank is at most
    num - 1 = n^2 + r^2 - 1 (n = r + 1), and `certified_rank` pins it with
    one prime that meets that bound.  At a prime it ranks the system by
    block elimination.  Row i of X meets the equations only as
    x_i * B = -[(A1*Y)[i, :], (A2*Y)[i, :]] with B = [A1 | A2] (n x 2r).
    With rho = rank_p(B) and K a basis of the right kernel of B mod p, each
    of these n blocks gives rho pivots on its own row of X, and the
    combinations of its equations by the columns of K hold Y alone, so

        rank_p(system) = n * rho + rank_p(W),
        W[(i, w), (l, j)] = A1[i, l] K[j, w] + A2[i, l] K[r + j, w],

    with W of shape n (2r - rho) x r^2.  This is the rank mod p of the same
    integer matrix as the full system, so rank_p <= exact rank <= num - 1
    still holds.  When no prime meets the bound, the system's rows are
    built and eliminated exactly.
    """
    r = _check_shape(A1, A2)
    num = (r + 1) ** 2 + r * r
    rank = certified_rank(lambda: _stabilizer_rows(A1, A2), num, num - 1, _stabilizer_level(A1, A2))
    return num - rank


def random_injective_pencil(r: int, seed: int) -> Tuple[ExactMatrix, ExactMatrix]:
    """Seeded (A1, A2) with every member of full column rank."""
    rng = random.Random(seed)
    draw = lambda: tuple(ExactMatrix(random_gaussian_rows(rng, r + 1, r, DRAW_SPAN)) for _k in range(2))
    return first_draw("injective pencil", draw, lambda mats: is_injective_pencil(*mats).ok, r=r, seed=seed)
