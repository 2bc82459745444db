"""Certified linear algebra over Q(i).

Elimination is fraction-free (Bareiss) with partial pivoting by first nonzero
entry: rows are scaled to Gaussian-integer form once, and every interior
division in the update step is exact by the Bareiss identity (checked).
Rank, kernel and determinant are exact; there is no floating fallback here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .scalars import GaussianRational, random_gaussian_rows

# Gaussian integers as plain (int, int) pairs inside the eliminator.


def _gi_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gi_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gi_div(x, y):
    # exact division in Z[i]; Bareiss guarantees divisibility
    a, b = x
    c, d = y
    n = c * c + d * d
    re, rr = divmod(a * c + b * d, n)
    im, ri = divmod(b * c - a * d, n)
    if rr or ri:
        raise AssertionError("inexact Bareiss division")
    return (re, im)


def _int_rows(rows):
    """Clear denominators row by row; returns list of lists of (int, int).

    Row scaling by positive integers; preserves rank and right kernel, and
    scales each row's contribution to det by the returned factors.
    """
    out = []
    scales = []
    for row in rows:
        lcm = 1
        for z in row:
            for q in (z.re, z.im):
                d = q.denominator
                if d != 1:
                    lcm = lcm * d // gcd(lcm, d)
        out.append(
            [
                (
                    z.re.numerator * (lcm // z.re.denominator),
                    z.im.numerator * (lcm // z.im.denominator),
                )
                for z in row
            ]
        )
        scales.append(lcm)
    return out, scales


def _bareiss(rows, ncols, stop_rank=None):
    """In-place fraction-free row echelon.

    Returns (rank, pivot_cols, sign) where sign tracks row swaps.  Stops early
    once stop_rank pivots are found (used by certified early-stop callers).
    """
    nrows = len(rows)
    rank = 0
    sign = 1
    prev = (1, 0)
    pivot_cols = []
    for col in range(ncols):
        if rank >= nrows or (stop_rank is not None and rank >= stop_rank):
            break
        p = None
        for i in range(rank, nrows):
            if rows[i][col] != (0, 0):
                p = i
                break
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
            sign = -sign
        piv = rows[rank][col]
        for i in range(rank + 1, nrows):
            ric = rows[i][col]
            if ric == (0, 0):
                # still must rescale trailing entries to keep Bareiss invariant
                for j in range(col + 1, ncols):
                    x = rows[i][j]
                    if x != (0, 0):
                        rows[i][j] = _gi_div(_gi_mul(piv, x), prev)
                continue
            row_i = rows[i]
            row_r = rows[rank]
            for j in range(col + 1, ncols):
                row_i[j] = _gi_div(
                    _gi_sub(_gi_mul(piv, row_i[j]), _gi_mul(ric, row_r[j])), prev
                )
            row_i[col] = (0, 0)
        prev = piv
        pivot_cols.append(col)
        rank += 1
    return rank, pivot_cols, sign


class ExactMatrix:
    """Immutable dense matrix over GaussianRational."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, cols: int | None = None):
        norm = []
        for row in data:
            norm.append(
                tuple(
                    z if isinstance(z, GaussianRational) else GaussianRational(z)
                    for z in row
                )
            )
        object.__setattr__(self, "data", tuple(norm))
        object.__setattr__(self, "rows", len(norm))
        object.__setattr__(
            self, "cols", len(norm[0]) if norm else (cols if cols is not None else 0)
        )
        for row in norm:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        z = GaussianRational(0)
        return ExactMatrix([[z] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        z, o = GaussianRational(0), GaussianRational(1)
        return ExactMatrix([[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns, rows: int) -> "ExactMatrix":
        if not columns:
            return ExactMatrix([[] for _ in range(rows)])
        return ExactMatrix(
            [[col[i] for col in columns] for i in range(rows)]
        )

    def column(self, j: int):
        return [self.data[i][j] for i in range(self.rows)]

    # -- structure ------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def is_zero(self) -> bool:
        return all(z.is_zero() for row in self.data for z in row)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def conj(self) -> "ExactMatrix":
        return ExactMatrix([[z.conj() for z in row] for row in self.data])

    def conj_transpose(self) -> "ExactMatrix":
        return self.transpose().conj()

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return ExactMatrix(
            [list(self.data[i]) + list(other.data[i]) for i in range(self.rows)]
        )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-z for z in row] for row in self.data])

    def scale(self, c) -> "ExactMatrix":
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        return ExactMatrix([[z * c for z in row] for row in self.data])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # Gaussian-integer form: one Fraction per product entry, not per term
        left, lscales = _int_rows(self.data)
        right, rscales = _int_rows(other.transpose().data)
        out = []
        for row, ls in zip(left, lscales):
            out_row = []
            for col, rs in zip(right, rscales):
                re = im = 0
                for (a, b), (c, d) in zip(row, col):
                    re += a * c - b * d
                    im += a * d + b * c
                s = ls * rs
                out_row.append(GaussianRational(Fraction(re, s), Fraction(im, s)))
            out.append(out_row)
        return ExactMatrix(out)

    def apply(self, vec):
        """Matrix times column vector (list)."""
        zero = GaussianRational(0)
        out = []
        for row in self.data:
            acc = zero
            for a, b in zip(row, vec):
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            out.append(acc)
        return out

    # -- certified elimination ---------------------------------------------

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        rows, _ = _int_rows(self.data)
        rank, _, _ = _bareiss(rows, self.cols)
        return rank

    def kernel_basis(self) -> "ExactMatrix":
        """Columns form a basis of the right kernel.  Shape (cols, nullity)."""
        n = self.cols
        if n == 0:
            return ExactMatrix([])
        if self.rows == 0:
            return ExactMatrix.identity(n)
        rows, _ = _int_rows(self.data)
        rank, pivots, _ = _bareiss(rows, n)
        free = [j for j in range(n) if j not in set(pivots)]
        zero, one = GaussianRational(0), GaussianRational(1)
        g_rows = [
            [GaussianRational(Fraction(a), Fraction(b)) for (a, b) in rows[i]]
            for i in range(rank)
        ]
        basis = []
        for f in free:
            v = [zero] * n
            v[f] = one
            for i in range(rank - 1, -1, -1):
                pc = pivots[i]
                acc = zero
                row = g_rows[i]
                for j in range(pc + 1, n):
                    if not (row[j].is_zero() or v[j].is_zero()):
                        acc = acc + row[j] * v[j]
                v[pc] = -acc / row[pc]
            basis.append(v)
        return ExactMatrix.from_columns(basis, n)

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return GaussianRational(1)
        rows, scales = _int_rows(self.data)
        rank, _, sign = _bareiss(rows, n)
        if rank < n:
            return GaussianRational(0)
        a, b = rows[n - 1][n - 1]
        d = GaussianRational(Fraction(a), Fraction(b)) * sign
        denom = 1
        for s in scales:
            denom *= s
        return d / denom

    def inverse(self) -> "ExactMatrix":
        """One fraction-free pass on [M | I], then back-substitution of the
        n right-hand columns; the closing product check certifies it."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        eye = ExactMatrix.identity(n)
        rows, _ = _int_rows(self.hstack(eye).data)
        _, pivots, _ = _bareiss(rows, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        zero = GaussianRational(0)
        g_rows = [[GaussianRational(Fraction(a), Fraction(b)) for (a, b) in row] for row in rows]
        cols = []
        for c in range(n, 2 * n):
            x = [zero] * n
            for i in range(n - 1, -1, -1):
                row = g_rows[i]
                acc = row[c]
                for j in range(i + 1, n):
                    if not (row[j].is_zero() or x[j].is_zero()):
                        acc = acc - row[j] * x[j]
                x[i] = acc / row[i]
            cols.append(x)
        inv = ExactMatrix.from_columns(cols, n)
        if (self @ inv) != eye:
            raise ValueError("singular matrix")
        return inv

    # -- conversion ----------------------------------------------------------

    def to_complex(self):
        """Nested lists of Python complex (floating boundary)."""
        return [[complex(z) for z in row] for row in self.data]

    def __repr__(self):
        body = "; ".join(
            " ".join(str(z) for z in row) for row in self.data
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def random_invertible(size: int, rng: random.Random, span: int = 2) -> ExactMatrix:
    """Seeded invertible Gaussian-integer matrix: draws until det != 0."""
    while True:
        m = ExactMatrix(random_gaussian_rows(rng, size, size, span))
        if not m.det().is_zero():
            return m
