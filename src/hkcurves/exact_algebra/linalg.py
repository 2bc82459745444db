"""Dense matrices over Q(i).

ExactMatrix is an immutable dense container.  Its exact methods read the
two exact kernels of the core: rank, right kernel and inverse come from the
sparse Gaussian-integer echelon of `ideals` (`sparse_echelon` and its
reduced `normal_form_table`) on its rows cleared of denominators
(`integer_row`), and the determinant from the Laplace kernel of `polys`.
There is no floating fallback here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod

from .ideals import integer_row, normal_form_table, sparse_echelon, sparse_row_rank
from .polys import linear_dets
from .scalars import GaussianRational, random_gaussian_rows

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def _int_rows(rows):
    """Clear denominators row by row: the (int, int) rows and each row's
    positive integer scale, for products on Gaussian integers."""
    out = []
    scales = []
    for row in rows:
        den = lcm(*(q.denominator for z in row for q in (z.re, z.im)))
        out.append(
            [
                (
                    z.re.numerator * (den // z.re.denominator),
                    z.im.numerator * (den // z.im.denominator),
                )
                for z in row
            ]
        )
        scales.append(den)
    return out, scales


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
        return sparse_row_rank([integer_row(enumerate(row)) for row in self.data])

    def kernel_basis(self) -> "ExactMatrix":
        """Columns form a basis of the right kernel.  Shape (cols, nullity).

        The reduced echelon form writes each pivot unknown as its normal
        form in the free ones: the vector of free column f has v[f] = 1,
        0 at the other free columns and table[pc][f] at each pivot pc.
        """
        n = self.cols
        rows = [integer_row(enumerate(row)) for row in self.data]
        table = normal_form_table(sparse_echelon(rows))
        basis = []
        for f in (j for j in range(n) if j not in table):
            v = [_ZERO] * n
            v[f] = _ONE
            for pc, nf in table.items():
                v[pc] = nf.get(f, _ZERO)
            basis.append(v)
        return ExactMatrix.from_columns(basis, n)

    def det(self) -> GaussianRational:
        """`polys.linear_dets` on the forms x0 * M[i][j], rows cleared of
        denominators: O(n * 2^n) products, so meant for small n."""
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        rows, scales = _int_rows(self.data)
        n = self.rows
        (re,), (im,) = linear_dets([[(z,) for z in row] for row in rows], 1, n)[tuple(range(n))]
        return GaussianRational(Fraction(re, prod(scales)), Fraction(im, prod(scales)))

    def inverse(self) -> "ExactMatrix":
        """The reduced echelon form of [M | I] is [I | M^-1], so M^-1 is minus
        the normal forms of the pivots 0..n-1; the closing product check
        certifies it."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        eye = ExactMatrix.identity(n)
        rows = [integer_row(enumerate(row)) for row in self.hstack(eye).data]
        table = normal_form_table(sparse_echelon(rows))
        if sorted(table) != list(range(n)):
            raise ValueError("singular matrix")
        inv = ExactMatrix([[-table[i].get(n + j, _ZERO) for j in range(n)] for i in range(n)])
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
    """Seeded invertible Gaussian-integer matrix: draws until full rank."""
    while True:
        m = ExactMatrix(random_gaussian_rows(rng, size, size, span))
        if m.rank() == size:
            return m

