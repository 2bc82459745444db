"""Graded pieces of homogeneous ideals as sparse echelon forms.

A row is a sparse vector over Q(i) indexed by monomials of a fixed degree,
held as Gaussian integers: ascending (column, a, b) triples for nonzero
a + b*i, standing for the Q(i) row up to a nonzero scalar, which changes no
rank, pivot or echelon.  Column order follows monomial_basis, so the pivot
is the lex-greatest monomial.  A caller holding Q(i) values clears each
row's denominators first, as `scalars.integer_pairs` does for a matrix.

A pivot is kept monic over one positive denominator D, as the primitive row
leading with (column, D, 0); its lead is made real by the lead's conjugate.
`sparse_echelon` returns these rows, and `reduced_echelon` clears them at
the other pivots.  GaussianRational is built only for the entries of
`normal_form_table` and in `GradedIdeal.normal_form`.  A row under reduction
matters only up to a scalar, so `eliminate` cross-multiplies and divides out
the integer content.  Entry sizes follow the span, not the path: a monic
pivot row is the one vector of its input rows' span with lead 1 and zeros at
the pivot columns it was reduced against, so by Cramer's rule its entries
are ratios of minors of the input rows; a deferred row is kept primitive, so
its content does not compound along a reduction chain.

A graded level I_k is spanned by the monomial shifts of the reduced
generators.  `certified_rank` is the one rank sandwich: rank mod p <= exact
rank <= a proven bound, so a prime that meets the bound pins the rank, and
exact elimination decides otherwise.  It also ranks a window of column
prefixes, each against its own bound, from one modular elimination per
prime: pivots are taken left to right, so those below column w rank the
prefix of width w (pivot prefixes, `modp`).  A rational map's band at its
top twist holds each lower twist's band as such a prefix, with rows
relabelled and zero rows added (nesting, `rational_curve`), so one
elimination ranks a window of twists; a prefix no prime certifies is
ranked exactly on its own columns.  Its rows hold no denominator, so
every prime gives a matrix; one that loses rank mod p only misses the bound.
Every modular shortcut of the package is a rank through it: graded levels,
the base-line matrix T of pencil injectivity, the pencil stabilizer and the
band matrices of rational maps.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import modp
from .modp import sparse_rank_certificate
from .polys import HomogPoly, monomial_basis, monomial_count, monomial_index
from .scalars import ZERO, GaussianRational

Row = List[Tuple[int, int, int]]


def _primitive(row: Row) -> Row:
    g = 0
    for _, a, b in row:
        g = gcd(g, a, b)
        if g == 1:
            return row
    return [(c, a // g, b // g) for c, a, b in row]


def eliminate(row: Row, k: int, piv: Row) -> Row:
    """Primitive D*row - x*piv, where piv leads with (col, D, 0) and row[k] = (col, x)."""
    d = piv[0][1]
    xa, xb = row[k][1], row[k][2]
    # piv has no column below col, so the entries before k are only scaled
    out = [(c, d * a, d * b) for c, a, b in row[:k]]
    i, j = k + 1, 1
    nr, np_ = len(row), len(piv)
    while i < nr and j < np_:
        cr, ar, br = row[i]
        cp, ap, bp = piv[j]
        if cr < cp:
            out.append((cr, d * ar, d * br))
            i += 1
        elif cr > cp:
            out.append((cp, xb * bp - xa * ap, -xa * bp - xb * ap))
            j += 1
        else:
            a = d * ar - xa * ap + xb * bp
            b = d * br - xa * bp - xb * ap
            if a or b:
                out.append((cr, a, b))
            i += 1
            j += 1
    out.extend((c, d * a, d * b) for c, a, b in row[i:])
    out.extend((c, xb * bp - xa * ap, -xa * bp - xb * ap) for c, ap, bp in piv[j:])
    return _primitive(out)


def _pivot(row: Row) -> Row:
    """The monic multiple of row, as a primitive integer row with a positive real lead."""
    col, a0, b0 = row[0]
    tail = [(c, a * a0 + b * b0, b * a0 - a * b0) for c, a, b in row[1:]]
    return _primitive([(col, a0 * a0 + b0 * b0, 0)] + tail)


def sparse_echelon(rows: Iterable[Row], target: Optional[int] = None) -> List[Row]:
    """Echelon rows of the span of `rows`, sorted by pivot column: each the
    primitive row of its monic row, leading with (column, D, 0).

    A first pass places every row whose lead column is still free; the
    deferred rows are then reduced against the pivots.  `target` is a
    proven upper bound on the rank: reduction stops once it is reached,
    and a first pass that places more pivots raises ArithmeticError.
    """
    pivots: Dict[int, Row] = {}
    deferred: List[Row] = []
    for row in rows:
        if not row:
            continue
        if row[0][0] in pivots:
            deferred.append(row)
        else:
            pivots[row[0][0]] = _pivot(row)
    if target is None or len(pivots) < target:
        for row in deferred:
            while row:
                piv = pivots.get(row[0][0])
                if piv is None:
                    break
                row = eliminate(row, 0, piv)
            if row:
                pivots[row[0][0]] = _pivot(row)
                if target is not None and len(pivots) >= target:
                    break
    if target is not None and len(pivots) > target:
        raise ArithmeticError(f"rank {len(pivots)} exceeds certified bound {target}")
    return [pivots[c] for c in sorted(pivots)]


def certified_rank(
    rows: Sequence[Row] | Callable[[], Sequence[Row]],
    ncols: int,
    bound: Optional[int] | Sequence[int],
    level: Optional[Callable[[int, int], modp.Level]] = None,
    widths: Optional[Sequence[int]] = None,
) -> int | List[int]:
    """Rank of Gaussian-integer rows with `ncols` columns, given `bound`, a
    proven upper bound on it, or None.

    rank mod p <= exact rank <= bound for every prime p: Z[i] -> Z/p with
    i -> s is a ring map, so a minor that is nonzero mod p is nonzero (see
    `modp.rows_mod`).  So a prime whose rank meets the bound pins the exact
    rank, and one above it proves the bound false (ArithmeticError).
    Otherwise `sparse_echelon` ranks the rows exactly and stops at the
    bound; rows with more distinct lead columns than the bound raise
    ArithmeticError there too.  With no bound no prime is tried.

    A caller that ranks its rows mod p more cheaply than `modp.rows_mod`
    and `modp.rank_mod` do passes `level`, a `modp.sparse_rank_certificate`
    level of the same rank mod p as the rows; `rows` may then be a function
    that builds them, called only when no prime meets the bound.

    With `widths`, `bound` holds one proven bound per column prefix (the
    columns below w, w in `widths`), and the result is one rank per prefix.
    `sparse_rank_certificate` certifies them all from one elimination per
    prime, since its pivots below w rank the prefix of width w (pivot
    prefixes, see `modp`); a prefix no prime certifies is ranked exactly on
    its own columns, against its own bound.
    """
    level = level or (lambda p, s: modp.rows_mod(rows, ncols, p, s))
    if widths is None:
        if bound is not None and sparse_rank_certificate(bound, level):
            return bound
        return len(sparse_echelon(rows() if callable(rows) else rows, bound))
    met = sparse_rank_certificate(bound, level, widths)
    exact = [] if met else rows() if callable(rows) else rows
    return [
        b if ok else len(sparse_echelon([row[: bisect_left(row, (w,))] for row in exact], b))
        for w, b, ok in zip(widths, bound, met)
    ]


def reduced_echelon(echelon: Sequence[Row]) -> Dict[int, Row]:
    """The reduced echelon form of `sparse_echelon` rows: pivot column -> its
    primitive row, led by (column, D, 0) with D > 0 and zero at every other
    pivot column."""
    reduced: Dict[int, Row] = {}
    # tails only hold columns larger than the pivot, so descending pivot
    # order sees every tail pivot already resolved
    for row in reversed(echelon):
        k = 1
        while k < len(row):
            sub = reduced.get(row[k][0])
            if sub is None:
                k += 1
            else:
                row = eliminate(row, k, sub)
        reduced[row[0][0]] = row
    return reduced


def normal_form_table(echelon: Sequence[Row]) -> Dict[int, Dict[int, GaussianRational]]:
    """Normal forms of the pivot columns of `sparse_echelon` rows: pivot
    column -> {non-pivot column: coeff}."""
    return {
        col: {c: GaussianRational.over(-a, -b, row[0][1]) for c, a, b in row[1:]}
        for col, row in reduced_echelon(echelon).items()
    }


class GradedIdeal:
    """Homogeneous ideal given by generators of a single common degree.

    Levels are built independently: degree-k rows come from monomial
    multiples of the mutually reduced generators, so entry sizes never
    compound across levels.  A known dimension stops the reduction pass of
    its level as soon as that rank is reached.
    """

    def __init__(self, generators: Sequence[HomogPoly]):
        gens = [g for g in generators if g.terms]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        degs = {g.degree for g in gens}
        if len(degs) != 1:
            raise ValueError(f"generators must share one degree, got {sorted(degs)}")
        counts = {g.num_vars for g in gens}
        if len(counts) != 1:
            raise ValueError(f"generators must share one variable count, got {sorted(counts)}")
        self.gen_degree = degs.pop()
        self.num_vars = counts.pop()
        self.generators = list(gens)
        self._levels: Dict[int, List[Row]] = {}
        self._dims: Dict[int, int] = {}
        self._cache: Dict[object, object] = {}

    def record_dimensions(self, dims: Dict[int, int]) -> None:
        """Record proven dims {k: dim I_k}; a level built later stops there."""
        self._dims.update(dims)

    # -- construction ----------------------------------------------------

    def _reduced_generators(self) -> List[Row]:
        cached = self._cache.get("gens")
        if cached is None:
            # a generator's row times its denominator is its numerators `terms`
            index = monomial_index(self.num_vars, self.gen_degree)
            cached = self._cache["gens"] = sparse_echelon(
                sorted((index[m], a, b) for m, (a, b) in g.terms.items()) for g in self.generators
            )
        return cached  # type: ignore[return-value]

    def _shift_columns(self, k: int) -> List[List[int]]:
        """Per degree k - d multiplier: the level-k column of each generator column."""
        n, d = self.num_vars, self.gen_degree
        index, monos = monomial_index(n, k), monomial_basis(n, d)
        return [[index[tuple(map(add, m, e))] for m in monos] for e in monomial_basis(n, k - d)]

    def _row_stream(self, k: int) -> List[Row]:
        gens = self._reduced_generators()
        # adding a fixed exponent vector preserves lex order, so the shifted
        # row is already sorted
        return [[(cols[c], a, b) for c, a, b in row] for cols in self._shift_columns(k) for row in gens]

    def _build(self, k: int) -> List[Row]:
        if k in self._levels:
            return self._levels[k]
        if k < self.gen_degree:
            self._levels[k] = []
            return []
        level = sparse_echelon(self._row_stream(k), self._dims.get(k))
        self._levels[k] = level
        return level

    # -- queries ----------------------------------------------------------

    def dimension(self, k: int, bound: Optional[int] = None) -> int:
        """dim I_k, given `bound`, a proven upper bound on it, or None, by
        `certified_rank` of the level's rows.

        Above the generator degree the rows get reversed columns, which keeps
        the entries of an exact echelon far smaller than lex-greatest pivots
        do and cannot change a rank: it multiplies by an invertible
        permutation matrix.  No echelon is kept, since `_build`'s pivots and
        normal forms need the lex order.
        """
        if k in self._dims:
            return self._dims[k]
        ncols = monomial_count(self.num_vars, k)
        if k < self.gen_degree:
            dim = 0
        elif k == self.gen_degree:
            # the reduced generators are already an echelon in lex order
            dim = certified_rank(self._reduced_generators(), ncols, bound)
        else:
            gens, last = self._reduced_generators(), ncols - 1
            rows = [
                [(last - cols[c], a, b) for c, a, b in reversed(row)]
                for cols in self._shift_columns(k)
                for row in gens
            ]
            dim = certified_rank(rows, ncols, bound)
        self._dims[k] = dim
        return dim

    def quotient_basis(self, k: int) -> List[int]:
        """Column indices of monomials spanning (R/I)_k: the non-pivot columns."""
        taken = {row[0][0] for row in self._build(k)}
        total = len(monomial_basis(self.num_vars, k))
        return [c for c in range(total) if c not in taken]

    # -- normal forms -----------------------------------------------------

    def normal_form(self, poly: HomogPoly) -> Dict[int, GaussianRational]:
        """Coordinates of poly mod I_k on the quotient monomial basis, from
        the normal forms of the degree-k pivot columns, built once per degree."""
        key = ("rref", poly.degree)
        table = self._cache.get(key)
        if table is None:
            table = self._cache[key] = normal_form_table(self._build(poly.degree))
        index = monomial_index(self.num_vars, poly.degree)
        acc: Dict[int, GaussianRational] = {}
        for mono, val in poly.coeffs.items():
            col = index[mono]
            sub = table.get(col)
            if sub is None:
                acc[col] = acc.get(col, ZERO) + val
            else:
                for c2, v2 in sub.items():
                    acc[c2] = acc.get(c2, ZERO) + val * v2
        return {c: v for c, v in acc.items() if v.re or v.im}


def sparse_row_rank(rows: Sequence[Row]) -> int:
    """Exact rank of a list of Gaussian-integer rows, no bound assumed."""
    return len(sparse_echelon(rows))
