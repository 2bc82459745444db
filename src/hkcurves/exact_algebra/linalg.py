"""Dense matrices over Q(i).

ExactMatrix is an immutable dense container with one integer form: its
entries as Gaussian-integer (re, im) pairs over one denominator D > 0,
cleared once by `scalars.integer_pairs` when built from entries.  Products,
equality and the exact methods read that form; a product is born in it,
over D_L * D_R, and so is an inverse, and each builds its Q(i) entries
(`data`) only when they are read, by `GaussianRational.over`.  Rank,
right kernel and inverse come from the sparse echelon of `ideals`
(`sparse_echelon` and its `reduced_echelon`) on the form's rows, and the
determinant from the array Laplace kernel of `polys`, on the form as a
matrix of forms in one variable, in int64, lifted by `modp.crt_lift`
above its bound.  There is no floating fallback here.
"""

from __future__ import annotations

import random
from math import lcm

from .ideals import normal_form_table, reduced_echelon, sparse_echelon, sparse_row_rank
from .polys import form_pairs, laplace
from .scalars import ONE, ZERO, GaussianRational, first_draw, integer_pairs, random_gaussian_rows


class ExactMatrix:
    """Immutable dense matrix over GaussianRational.  `integer_form` is (rows, D):
    the entries as (re, im) int pairs over one D > 0, the lcm of their
    denominators, or for a product or inverse the D it was built over."""

    __slots__ = ("_data", "integer_form", "rows", "cols")

    def __init__(self, data, cols: int | None = None):
        norm = tuple(tuple(z if isinstance(z, GaussianRational) else GaussianRational(z) for z in row) for row in data)
        cols = len(norm[0]) if norm else (cols if cols is not None else 0)
        if any(len(row) != cols for row in norm):
            raise ValueError("ragged rows")
        pairs, den = integer_pairs(z for row in norm for z in row)
        form = tuple(tuple(pairs[i * cols : (i + 1) * cols]) for i in range(len(norm)))
        for name, value in zip(self.__slots__, (norm, (form, den), len(norm), cols)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_integer_form(rows: tuple, den: int, cols: int) -> "ExactMatrix":
        """The matrix of (re, im) int pair rows over one denominator den > 0,
        holding only that form until its entries are read."""
        m = ExactMatrix.__new__(ExactMatrix)
        for name, value in zip(m.__slots__, (None, (rows, den), len(rows), cols)):
            object.__setattr__(m, name, value)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return (ExactMatrix, (self.data, self.cols))

    @property
    def data(self) -> tuple:
        if self._data is None:
            rows, d = self.integer_form
            object.__setattr__(self, "_data", tuple(tuple(GaussianRational.over(a, b, d) for a, b in row) for row in rows))
        return self._data

    def _sparse_rows(self) -> list:
        """The form's rows as sparse (column, a, b) triples: each D times its row."""
        return [[(j, a, b) for j, (a, b) in enumerate(row) if a or b] for row in self.integer_form[0]]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix([[ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    # -- structure ------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix) or self.shape != other.shape:
            return False
        (left, ld), (right, rd) = self.integer_form, other.integer_form
        return all(
            a * rd == c * ld and b * rd == d * ld
            for lrow, rrow in zip(left, right)
            for (a, b), (c, d) in zip(lrow, rrow)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def is_zero(self) -> bool:
        return all(z.is_zero() for row in self.data for z in row)

    def conj(self) -> "ExactMatrix":
        return ExactMatrix([[z.conj() for z in row] for row in self.data])

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
        (left, ld), (right, rd) = self.integer_form, other.integer_form
        # with an inner dimension of 0, zip(*right) would drop the columns
        cols = list(zip(*right)) or [()] * other.cols
        out = []
        for row in left:
            out_row = []
            for col in cols:
                re = im = 0
                for (a, b), (c, d) in zip(row, col):
                    re += a * c - b * d
                    im += a * d + b * c
                out_row.append((re, im))
            out.append(tuple(out_row))
        return ExactMatrix.from_integer_form(tuple(out), ld * rd, other.cols)

    # -- certified elimination ---------------------------------------------

    def rank(self) -> int:
        return sparse_row_rank(self._sparse_rows())

    def kernel_basis(self) -> "ExactMatrix":
        """Columns form a basis of the right kernel.  Shape (cols, nullity).

        The reduced echelon form writes each pivot unknown as its normal
        form in the free ones: the vector of free column f has v[f] = 1,
        0 at the other free columns and table[pc][f] at each pivot pc.
        """
        n = self.cols
        table = normal_form_table(sparse_echelon(self._sparse_rows()))
        free = [j for j in range(n) if j not in table]
        rows = [[ONE if i == f else table.get(i, {}).get(f, ZERO) for f in free] for i in range(n)]
        return ExactMatrix(rows, cols=len(free))

    def det(self) -> GaussianRational:
        """`polys.laplace` on the forms x0 * M[i][j] of the integer form,
        over D^n: O(n * 2^n) products per modulus, so meant for small n."""
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        pairs, den = form_pairs([self.integer_form])
        [[(re, im)]] = laplace(pairs).tolist()
        return GaussianRational.over(re, im, den**self.rows)

    def inverse(self) -> "ExactMatrix":
        """The reduced echelon form of [M | I] is [I | M^-1]: row i is
        L_i [e_i | row i of M^-1] with L_i > 0, so over L = lcm(L_i) row i
        of M^-1 is L / L_i times its tail.  The closing check certifies it:
        the integer form (rows, D') of M * inv is compared with D' * I as
        integer pairs, with no Q(i) identity built."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n, den = self.rows, self.integer_form[1]
        # D times the rows of [M | I]
        rows = [row + [(n + i, den, 0)] for i, row in enumerate(self._sparse_rows())]
        reduced = reduced_echelon(sparse_echelon(rows))
        if sorted(reduced) != list(range(n)):
            raise ValueError("singular matrix")
        L = lcm(*(reduced[i][0][1] for i in range(n)))
        form = []
        for i in range(n):
            scale, out = L // reduced[i][0][1], [(0, 0)] * n
            for c, a, b in reduced[i][1:]:
                out[c - n] = (a * scale, b * scale)
            form.append(tuple(out))
        inv = ExactMatrix.from_integer_form(tuple(form), L, n)
        # M * inv == I exactly when the product's form (rows, D') is D' * I
        prod, prod_den = (self @ inv).integer_form
        if prod != tuple(tuple((prod_den if i == j else 0, 0) for j in range(n)) for i in range(n)):
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


def random_invertible(size: int, rng: random.Random) -> ExactMatrix:
    """Seeded invertible Gaussian-integer matrix, both parts of each entry in
    [-2, 2]: draws until full rank."""
    draw = lambda: ExactMatrix(random_gaussian_rows(rng, size, size, 2))
    return first_draw("invertible matrix", draw, lambda m: m.rank() == size, size=size)

