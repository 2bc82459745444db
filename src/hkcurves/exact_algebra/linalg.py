"""Dense matrices over Q(i).

ExactMatrix is an immutable dense container with one integer form: its
entries as Gaussian-integer (re, im) pairs over one denominator D > 0,
cleared once by `scalars.integer_pairs` when built from entries.  Products,
equality and the exact methods read that form; a product is born in it,
over D_L * D_R, and so is an inverse, and each builds its Q(i) entries
(`data`) only when they are read, by `GaussianRational.over`.  Rank and
right kernel come from the sparse echelon of `ideals` on the form's rows,
the inverse from fraction-free Gauss-Jordan on the form's rows packed into
bigints (`_pack`), and the determinant from the array Laplace kernel of
`polys`, on the form as a matrix of forms in one variable, in int64,
lifted by `modp.crt_lift` above its bound.  There is no floating fallback.
"""

from __future__ import annotations

import random
from math import gcd, prod

from .ideals import normal_form_table, sparse_echelon, sparse_row_rank
from .polys import form_pairs, laplace
from .scalars import ONE, ZERO, GaussianRational, first_draw, integer_pairs, random_gaussian_pairs


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

    # -- arithmetic -------------------------------------------------------

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
        """Fraction-free Gauss-Jordan (Bareiss) over Z[i] on [N | I], N = D*M,
        each row packed by `_pack` as one int of real and one of imaginary
        parts.  Step k swaps up the first row >= k with a nonzero field k,
        then sets row_i = (p*row_i - x_i*row_k) / prev for i != k: p the
        pivot, x_i field k of row i, prev the last pivot, and the division a
        product by conj(prev) and an exact // by |prev|^2.

        Minor theorem (Sylvester's identity): after step k every field is
        +- a (k+1)-minor of the row-permuted [N | I], so each division is
        exact, and row i ends as [d e_i | R_i], d the last pivot: M^-1 is
        D*R*conj(d) / |d|^2, and over |d|^2 divided by its gcd with every
        part, the lcm of the entries' denominators.  Bound: such a minor is
        +- a minor of N, so |Re| + |Im| of it is at most H = prod_i max(1,
        l1(row i of N)), as in `polys.laplace`, and with K = bits(H) + 2
        every field read is exact.  The closing check certifies the result:
        the integer form (rows, E) of M * inv is compared with E * I as
        integer pairs, with no Q(i) identity built."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n, (form, den) = self.rows, self.integer_form
        K = prod(max(1, sum(abs(a) + abs(b) for a, b in row)) for row in form).bit_length() + 2
        # row i of [N | I]: the identity's 1 is field n + i of the real parts
        rows = [[_pack([a for a, _ in row] + [0] * i + [1], K), _pack([b for _, b in row], K)] for i, row in enumerate(form)]
        (pa, pb), q = (1, 0), 1
        for k in range(n):
            col = [(_field(re, k, K), _field(im, k, K)) for re, im in rows]
            piv = next((i for i in range(k, n) if col[i] != (0, 0)), None)
            if piv is None:
                raise ValueError("singular matrix")
            rows[k], rows[piv], col[k], col[piv] = rows[piv], rows[k], col[piv], col[k]
            # x_i * conj(prev) for every row, the pivot's too; then // |prev|^2
            c = [(xa * pa + xb * pb, xb * pa - xa * pb) for xa, xb in col]
            (ua, ub), (ka, kb) = c[k], rows[k]
            for i, (ra, rb) in enumerate(rows):
                if i != k:
                    ya, yb = c[i]
                    rows[i] = [(ua * ra - ub * rb - ya * ka + yb * kb) // q, (ua * rb + ub * ra - ya * kb - yb * ka) // q]
            (pa, pb), q = col[k], col[k][0] ** 2 + col[k][1] ** 2
        # row i of M^-1 is D * R_i * conj(d) / |d|^2, made lowest
        out = [[(_field(re, j, K), _field(im, j, K)) for j in range(n, 2 * n)] for re, im in rows]
        out = [[(den * (a * pa + b * pb), den * (b * pa - a * pb)) for a, b in row] for row in out]
        g = gcd(q, *(x for row in out for pair in row for x in pair))
        inv_form = tuple(tuple((a // g, b // g) for a, b in row) for row in out)
        inv = ExactMatrix.from_integer_form(inv_form, q // g, n)
        # M * inv == I exactly when the product's form (rows, E) is E * I
        product, product_den = (self @ inv).integer_form
        if product != tuple(tuple((product_den if i == j else 0, 0) for j in range(n)) for i in range(n)):
            raise ValueError("singular matrix")
        return inv

    def __repr__(self):
        body = "; ".join(
            " ".join(str(z) for z in row) for row in self.data
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _pack(values, K: int) -> int:
    """The ints as the balanced K-bit fields of one int, sum_j values[j] * 2^(K*j)
    (Kronecker substitution): a row operation is then a few bigint products."""
    return sum(v << K * j for j, v in enumerate(values))


def _field(packed: int, j: int, K: int) -> int:
    """Field j of `_pack(values, K)`, exact when every |value| < 2^(K-1):
    rounding at bit K*j absorbs the fields below, and the field is the
    balanced residue mod 2^K of what is left."""
    t = (packed + ((1 << K * j) >> 1)) >> K * j
    return ((t + (1 << K - 1)) & ((1 << K) - 1)) - (1 << K - 1)


def random_invertible(size: int, rng: random.Random) -> ExactMatrix:
    """Seeded invertible Gaussian-integer matrix, both parts of each entry in
    [-2, 2]: draws until full rank."""
    draw = lambda: ExactMatrix.from_integer_form(random_gaussian_pairs(rng, size, size, 2), 1, size)
    return first_draw("invertible matrix", draw, lambda m: m.rank() == size, size=size)

