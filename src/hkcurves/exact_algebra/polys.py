"""Graded polynomial plumbing over Q(i).

The library passes a form as the dense (re, im) pair row of its
numerators over the monomial basis, a minor table's row.  HomogPoly, a
sparse container of such numerators keyed by exponent tuples over one
positive denominator, with gcd(den, content) = 1, is only the view of a
curve's rows as forms (`ACMCurve.minors`) for readers outside the library,
and GaussianRational coefficients appear only in its `coeffs` view.
Monomial bases are lexicographically descending, so coordinate layouts are
reproducible across runs.

`laplace` is the one Laplace kernel, for matrices of linear forms with one
way in and one way out.  In, the integer forms of the coefficient matrices
as numpy arrays of Gaussian-integer pairs over one denominator
(`form_pairs`); out, for the maximal minors, one signed-minor table
(`signed_minor_table`), which the pencils and the curves read as it is
(`table_forms` builds the `minors` view on demand).  Each entry
becomes, per variable, the real 2 x 2 block of c + d*i; a depth of the
expansion, for all row subsets at once, is a gather of the child
sub-determinants through a subset plan, one contraction with the blocks,
and one gather that shifts each variable's terms to their monomials and
sums them.  The arrays are always int64: under a proven bound B <= 2^63 - 1
the pass runs directly, and above it once per word-size modulus, reduced
after each depth, and `modp.crt_lift` lifts the residues to the exact
values.  The kernel gives the minor tables of curves (four variables)
and pencils (two) and `ExactMatrix.det` (one); the cofactor identity,
`column_combinations`, runs the same contraction on a stored table.
UniPoly is the univariate polynomial of the exact gcd, `uni_gcd`, and
`binary_common_zero` reads the one witness of a common zero of binary
forms (a pencil's minors, a map's forms or its Jacobian minors) off it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import add
from types import MappingProxyType

import numpy as np

from .modp import crt_lift
from .scalars import ONE, ZERO, GaussianRational


@lru_cache(maxsize=None)
def monomial_basis(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, lex descending."""
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for tail in monomial_basis(num_vars - 1, degree - e):
            out.append((e,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomial_basis(num_vars, degree))}


def monomial_count(num_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + num_vars - 1, num_vars - 1)


class HomogPoly:
    """Homogeneous form sum_m (a_m + b_m*i) x^m / den over Q(i).

    The one constructor takes `terms`, exponent tuples to Gaussian-integer
    numerators (a, b), over one positive integer `den`; it drops zero
    numerators and divides gcd(den, every a and b) out, so == and hash
    compare the unique result directly.  `coeffs` is the read-only
    {monomial: GaussianRational} view for readers outside the library.
    """

    __slots__ = ("num_vars", "degree", "terms", "den", "_coeffs")

    def __init__(self, num_vars: int, degree: int, terms: dict, den: int = 1):
        terms = {m: ab for m, ab in terms.items() if ab[0] or ab[1]}
        g = gcd(den, *(x for ab in terms.values() for x in ab)) if den > 1 else 1
        if g > 1:
            den //= g
            terms = {m: (a // g, b // g) for m, (a, b) in terms.items()}
        for name, value in zip(self.__slots__, (num_vars, degree, terms, den, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return (HomogPoly, (self.num_vars, self.degree, self.terms, self.den))

    @property
    def coeffs(self) -> MappingProxyType:
        if self._coeffs is None:
            view = {m: GaussianRational.over(a, b, self.den) for m, (a, b) in self.terms.items()}
            object.__setattr__(self, "_coeffs", MappingProxyType(view))
        return self._coeffs

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, self.degree, self.den, frozenset(self.terms.items())))

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for m1, (a1, b1) in self.terms.items():
            for m2, (a2, b2) in other.terms.items():
                m = tuple(map(add, m1, m2))
                prev = out.get(m, (0, 0))
                out[m] = (prev[0] + a1 * a2 - b1 * b2, prev[1] + a1 * b2 + b1 * a2)
        return HomogPoly(self.num_vars, self.degree + other.degree, out, self.den * other.den)

    def __repr__(self):
        if not self.terms:
            return "HomogPoly(0)"
        names = "xyzw" if self.num_vars <= 4 else None
        parts = []
        for m in sorted(self.coeffs, reverse=True):
            c = self.coeffs[m]
            mono = "*".join(
                (names[i] if names else f"x{i}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            )
            parts.append(f"({c}){mono or '1'}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the one Laplace kernel, for matrices of linear forms

# the most gathered values one product reads, to bound a depth's temporaries
_GATHER = 2**16
# the subset plans of a row count whose depths all hold at most this many
# subsets are kept; larger ones live for one call
_KEPT_SUBSETS = 2048


def _pair_array(values: list, shape: tuple) -> np.ndarray:
    """Nested (re, im) int pairs as an int64 array where every value fits,
    else as an array of the exact ints."""
    try:
        return np.array(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def form_pairs(forms: list) -> tuple[np.ndarray, int]:
    """(X, D) for the matrix sum_v A_v x_v of linear forms, read off the
    integer forms (rows, D_v) of A_0 .. A_(n-1), one shape R x C.
    X[j, i, v] is the (re, im) numerator pair of x_v in entry (i, j), over
    D = lcm(D_v); X is int64 where every numerator fits, else exact ints."""
    den = lcm(*(d for _, d in forms))
    first = forms[0][0]
    values = [
        rows if d == den else [[(a * (den // d), b * (den // d)) for a, b in row] for row in rows]
        for rows, d in forms
    ]
    shape = (len(forms), len(first), len(first[0]) if first else 0, 2)
    return _pair_array(values, shape).transpose(2, 1, 0, 3), den


def _l1(X: np.ndarray) -> list[int]:
    """|c| + |d| summed over the variables, for entry (i, j) of X at
    j * R + i: the l1 norm of each entry, as exact ints."""
    ncols, nrows, num_vars = X.shape[:3]
    return [sum(map(abs, entry)) for entry in X.reshape(ncols * nrows, 2 * num_vars).tolist()]


# column s * 4 + b * 2 + a: (c, d) to (-1)^s times entry (b, a) of [[c, d], [-d, c]]
_SIGNED_BLOCKS = np.array([[1, 0, 0, 1, -1, 0, 0, -1], [0, 1, -1, 0, 0, -1, 1, 0]])


def _reduced(values: np.ndarray, m: int | None) -> np.ndarray:
    """values as int64, taken into [0, m) when a modulus m is given."""
    return (values if m is None else values % m).astype(np.int64, copy=False)


def _blocks(X: np.ndarray, m: int | None) -> np.ndarray:
    """(C, 2R, 2, n, 2) int64: (c, d) of X, or of X mod m, at [j, i, v] as
    the real 2 x 2 block [[c, d], [-d, c]] at [j, i, :, v, :], whose row b
    maps part b (re, im) of a factor to the (re, im) of its product with
    c + d*i; rows R .. 2R - 1 of a column hold the negated blocks.  A value
    mod m sums at most 2 R n products, which `crt_lift` allows up to 2^11."""
    ncols, nrows, num_vars = X.shape[:3]
    if m is not None and nrows * num_vars > 2**10:
        raise ValueError(f"{nrows} rows of {num_vars} variables exceed the int64 bound of the modular pass")
    signed = (_reduced(X, m) @ _SIGNED_BLOCKS).reshape(ncols, nrows, num_vars, 2, 2, 2)
    return signed.transpose(0, 3, 1, 4, 2, 5).reshape(ncols, 2 * nrows, 2, num_vars, 2)


@lru_cache(maxsize=None)
def _spots(num_vars: int, degree: int) -> np.ndarray:
    """(W', n): where the term of m / x_v sits among one subset's products
    with the variables, m running over the monomials of degree + 1: at
    i * n + v for m / x_v the i-th monomial of the degree, and at W * n + v,
    in a zero row past the W monomials, where x_v does not divide m."""
    index = monomial_index(num_vars, degree)
    pad = len(index)
    out = np.array(
        [[(index[m[:v] + (m[v] - 1,) + m[v + 1 :]] if m[v] else pad) * num_vars + v for v in range(num_vars)]
         for m in monomial_basis(num_vars, degree + 1)],
        dtype=np.intp,
    ).reshape(-1, num_vars)
    out.flags.writeable = False
    return out


def _depth_plans(nrows: int):
    """(plan, child) per depth k = 0 .. nrows - 1: the (k+1)-subsets T of the
    rows in colex order, child[t, p] the colex rank of T minus its p-th row
    and plan[t, p] that row, plus nrows where its cofactor sign
    (-1)^(p + k) is negative.  With rank(S) = sum_j C(s_j, j + 1), the
    subsets whose largest row is x follow all those below it."""
    elems = child = np.zeros((1, 0), dtype=np.intp)
    for k in range(nrows):
        sizes = [(x, comb(x, k)) for x in range(k, nrows)]
        elems, child = (
            np.concatenate([np.column_stack([elems[:c], np.full(c, x)]) for x, c in sizes]),
            np.concatenate([np.column_stack([child[:c] + comb(x, k), np.arange(c)]) for x, c in sizes]),
        )
        yield elems + nrows * ((np.arange(k + 1) + k) % 2), child


@lru_cache(maxsize=None)
def _kept_plans(nrows: int) -> tuple:
    plans = tuple(_depth_plans(nrows))
    for array in itertools.chain.from_iterable(plans):
        array.flags.writeable = False
    return plans


def _plans(nrows: int):
    return _kept_plans(nrows) if comb(nrows, nrows // 2) <= _KEPT_SUBSETS else _depth_plans(nrows)


def _contract(level: np.ndarray, child: np.ndarray, spots: np.ndarray, factors: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """out[t, m, a] = sum over p, v, b of level[child[t, p], m / x_v, b] *
    factors[plan[t, p], b, v, a], terms with x_v not dividing m left out:
    the forms sum_p (form child[t, p]) * (linear form plan[t, p]), forms as
    (monomial, re/im) arrays, factors as blocks of `_blocks` and `spots` as
    in `_spots`.  One product contracts position and re/im for all
    variables at once, and one gather through `spots` sums the variables,
    per chunk of rows t of at most about _GATHER values.
    """
    (count, npos), (width, lanes) = child.shape, spots.shape
    inner = level.shape[1]
    out = np.empty((count, width, 2), dtype=level.dtype)
    chunk = max(1, _GATHER // (2 * max(inner * npos, width * lanes)))
    for lo in range(0, count, chunk):
        part = slice(lo, lo + chunk)
        rows = child[part]
        gathered = level[rows[:, None, :], np.arange(inner)[None, :, None]]
        terms = np.zeros((len(rows), inner + 1, 2 * lanes), dtype=level.dtype)
        np.matmul(gathered.reshape(len(rows), inner, -1), factors[plan[part]].reshape(len(rows), 2 * npos, -1),
                  out=terms[:, :inner])
        out[part] = terms.reshape(len(rows), -1, 2)[:, spots].sum(axis=2)
    return out


def laplace(X: np.ndarray) -> np.ndarray:
    """Determinant of every C-subset of the rows of the R x C matrix of
    linear forms X of `form_pairs` (R >= C), subsets in colex order, as
    (re, im) numerators over D^C of monomial_basis(n, C): an array
    (C(R, C), monomial_count(n, C), 2).

    Depth k expands each (k+1)-subset along column k, for all subsets at
    once (`_contract`): a gather of the child sub-determinants through the
    subset plan, one contraction over position and re/im with the signed
    blocks of column k for every variable, and one gather that moves the
    terms of x_v to their monomials m x_v and sums the variables.  Depth 0
    is column 0 itself.

    B = prod_i max(R_i, 1), R_i the l1 norm of row i (|c| + |d| over its
    entries and variables), bounds every entry, product and partial sum:
    |Re xy| + |Im xy| <= (|Re x| + |Im x|)(|Re y| + |Im y|), so a partial
    sum of the expansion of a sub-determinant on rows S is at most the
    permanent of the l1 norms of its entries, which is at most prod_(i in
    S) R_i <= B.  The pass runs through `modp.crt_lift` with that bound, in
    int64 or, past it, mod each modulus (reduced every depth) and lifted.
    """
    ncols, nrows, num_vars = X.shape[:3]
    if not ncols:
        return np.array([[[1, 0]]], dtype=np.int64)
    norms = _l1(X)
    def run(m):
        blocks = _blocks(X, m)
        # depth 0: the 1-subsets, row i at colex rank i, are the entries of
        # column 0, the (re, im) row of their blocks over x_0 .. x_(n-1)
        level = blocks[0, :nrows, 0]
        for k, (plan, child) in itertools.islice(zip(range(ncols), _plans(nrows)), 1, None):
            level = _reduced(_contract(level, child, _spots(num_vars, k), blocks[k], plan), m)
        return level
    return crt_lift(run, prod(max(sum(norms[i::nrows]), 1) for i in range(nrows)))


def table_forms(values: np.ndarray, num_vars: int, degree: int, den: int) -> list[HomogPoly]:
    """The (monomial, re/im) rows of values as forms of the degree over den."""
    basis = monomial_basis(num_vars, degree)
    return [
        HomogPoly(num_vars, degree, {m: (a, b) for m, (a, b) in zip(basis, rows) if a or b}, den)
        for rows in values.tolist()
    ]


def signed_minor_table(X: np.ndarray) -> np.ndarray:
    """(r+1, monomial_count(n, r), 2): row i holds the (re, im) numerators
    of (-1)^i * det(matrix with row i deleted), over D^r, for the (r+1) x r
    matrix of linear forms X of `form_pairs`: one `laplace` pass, whose
    rows without row i have colex rank r - i."""
    ncols, nrows = X.shape[:2]
    if nrows != ncols + 1:
        raise ValueError(f"expected (r+1) x r entries, got {nrows} x {ncols}")
    table = laplace(X)[::-1]
    table[1::2] *= -1
    return table


def column_combinations(table: np.ndarray, X: np.ndarray, degree: int) -> np.ndarray:
    """sum_i row i of table * entry (i, j) for every column j of the matrix
    of linear forms X of `form_pairs`, for a table (R, monomial_count(n, e),
    2), and no other shape, of numerators of forms of degree e = `degree`
    over one denominator, int64 or exact ints (a `signed_minor_table`): one
    contraction for all columns (`_contract`), the (C, monomial_count(n,
    e + 1), 2) numerators of the sums over that denominator times D.

    It runs through `modp.crt_lift` with B = (sum_i max(|t_i|, 1)) *
    max(1, max_(i,j) |e_ij|), |.| the l1 norm of a table row or an entry's
    numerators.  B bounds every value: a partial sum of column j is at
    most sum_i |t_i| |e_ij| <= B by the inequality of `laplace`.  The bound
    is read off the table as given, so it also holds for rows that are not
    the matrix's minors.
    """
    ncols, nrows, num_vars = X.shape[:3]
    if table.shape[:2] != (nrows, monomial_count(num_vars, degree)):
        raise ValueError(f"expected a ({nrows}, {monomial_count(num_vars, degree)}, 2) table, got {table.shape}")
    norms = [sum(map(abs, row)) for row in table.reshape(nrows, -1).tolist()]
    child = np.zeros((ncols, 1), dtype=np.intp) + np.arange(nrows)
    plan = child + 2 * nrows * np.arange(ncols)[:, None]
    def run(m):
        blocks = _blocks(X, m).reshape(-1, 2, num_vars, 2)
        return _reduced(_contract(_reduced(table, m), child, _spots(num_vars, degree), blocks, plan), m)
    return crt_lift(run, sum(max(x, 1) for x in norms) * max([1, *_l1(X)]))


# ---------------------------------------------------------------------------
# univariate polynomials over Q(i)


class UniPoly:
    """Dense univariate polynomial; coeffs[k] multiplies x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in coeffs
        ]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return (UniPoly, (self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            a = self.coeffs[k] if k < len(self.coeffs) else ZERO
            b = other.coeffs[k] if k < len(other.coeffs) else ZERO
            out.append(a + b)
        return UniPoly(out)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return UniPoly([c / lead for c in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([]), self
        quot = [ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return UniPoly(quot), UniPoly(rem[: len(other.coeffs) - 1])

    def evaluate(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        return "UniPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


def uni_interpolate(points, values) -> UniPoly:
    """Unique polynomial of degree < len(points) through (point, value) pairs."""
    pts = [p if isinstance(p, GaussianRational) else GaussianRational(p) for p in points]
    vals = [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values]
    if len(pts) != len(vals) or not pts:
        raise ValueError("need matching nonempty points and values")
    # Newton divided differences
    coef = list(vals)
    n = len(pts)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    poly = UniPoly([coef[-1]])
    for i in range(n - 2, -1, -1):
        poly = poly * UniPoly([-pts[i], ONE]) + UniPoly([coef[i]])
    return poly


def uni_gcd(polys) -> UniPoly:
    """Monic gcd of a family of UniPoly via the Euclidean algorithm."""
    g = UniPoly([])
    for p in polys:
        a, b = g, p
        while not b.is_zero():
            _, rem = a.divmod(b)
            a, b = b, rem
        g = a.monic()
        if g.is_constant() and not g.is_zero():
            return g  # already trivial, no need to continue
    return g


def binary_common_zero(forms: list) -> tuple:
    """(witness, gcd) of binary forms of one degree d that share a zero on
    P^1, rows of Gaussian-integer (re, im) pairs with entry k at
    s^(d-k) t^k; no form's scale or sign moves either.  [1 : 0] when every
    form vanishes, [0 : 1] when every t^d coefficient does, both with no
    gcd; else the exact monic gcd g of the f(1, t) and [1 : t0], t0 the
    first exact root of g among its numeric roots rationalized at
    denominators up to 1, 12 and 10^6, then the mean -g_(n-1) / n of its n
    roots, exact for a power of one linear factor (None if no candidate is
    a root).  A constant g raises ArithmeticError."""
    if not any(a or b for f in forms for a, b in f):
        return (ONE, ZERO), None
    if not any(a or b for f in forms for a, b in f[-1:]):
        return (ZERO, ONE), None
    g = uni_gcd([UniPoly([GaussianRational(a, b) for a, b in f]) for f in forms])
    if g.degree < 1:
        raise ArithmeticError("a rank proves a common zero that the exact gcd lacks")
    try:
        roots = np.roots([complex(c) for c in reversed(g.coeffs)])
    except OverflowError:  # a coefficient past the float range
        roots = []
    candidates = itertools.chain(
        (GaussianRational.from_complex(complex(z), limit) for z in roots for limit in (1, 12, 10**6)),
        [-g.coeffs[-2] / g.degree],
    )
    t0 = next((t for t in candidates if g.evaluate(t).is_zero()), None)
    return (None if t0 is None else (ONE, t0)), g
