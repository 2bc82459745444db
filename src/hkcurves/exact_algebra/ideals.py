"""Graded pieces of homogeneous ideals as sparse echelon forms.

A row is a sparse vector over Q(i) indexed by monomials of a fixed degree,
held as Gaussian integers: ascending (column, a, b) triples for nonzero
a + b*i, standing for the Q(i) row up to a nonzero scalar, which changes no
rank, pivot or echelon.  Column order follows monomial_basis, so the pivot
is the lex-greatest monomial.  A caller holding Q(i) values clears each
row's denominators with `integer_row`.

A pivot is kept monic over one positive denominator D, as the primitive row
leading with (column, D, 0); its lead is made real by the lead's conjugate.
`sparse_echelon` returns these rows; GaussianRational is built only for the
entries of `normal_form_table` and in `GradedIdeal.normal_form`.  A row
under reduction matters only up to a scalar, so `eliminate` cross-multiplies
and divides out the integer content.  Entry sizes follow the span, not the
path: a monic pivot row is the one vector of its input rows' span with lead
1 and zeros at the pivot columns it was reduced against, so by Cramer's rule
its entries are ratios of minors of the input rows; a deferred row is kept
primitive, so its content does not compound along a reduction chain.

A graded level I_k is spanned by the monomial shifts of the reduced
generators.  On the modular route the generators are reduced mod p once
per prime and kept on the ideal, and level k is scattered from them through
one [multiplier, generator column] -> level column index array: a shift
only permutes a row's columns, and reduction mod p acts entry by entry, so
the scattered level is the reduction of the exact one.  The rows hold no
denominator, so every prime gives a level; one that loses rank mod p only
misses the certified bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import modp
from .modp import sparse_rank_certificate
from .polys import HomogPoly, monomial_basis, monomial_count, monomial_index, shift_index
from .scalars import GaussianRational

Row = List[Tuple[int, int, int]]

_ZERO = GaussianRational(0, 0)


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


def integer_row(row: Iterable[Tuple[object, GaussianRational]]) -> list:
    """The row times the lcm of its denominators, as (key, a, b) triples
    for its nonzero entries a + b*i, in the given order."""
    row = [(c, v) for c, v in row if v.re or v.im]
    den = lcm(*(q.denominator for _, v in row for q in (v.re, v.im)))
    return [
        (c, v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))
        for c, v in row
    ]


def sparse_echelon(rows: Iterable[Row], target: Optional[int] = None) -> List[Row]:
    """Echelon rows of the span of `rows`, sorted by pivot column: each the
    primitive row of its monic row, leading with (column, D, 0).

    A first pass places every row whose lead column is still free; the
    deferred rows are then reduced against the pivots.  `target` is a
    proven upper bound on the rank: reduction stops once it is reached,
    and a rank above it raises ArithmeticError.
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


def normal_form_table(echelon: Sequence[Row]) -> Dict[int, Dict[int, GaussianRational]]:
    """Normal forms of the pivot columns of `sparse_echelon` rows: pivot
    column -> {non-pivot column: coeff}."""
    reduced: Dict[int, Row] = {}
    table: Dict[int, Dict[int, GaussianRational]] = {}
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
        d = -row[0][1]
        table[row[0][0]] = {
            c: GaussianRational(Fraction(a, d), Fraction(b, d)) for c, a, b in row[1:]
        }
    return table


class GradedIdeal:
    """Homogeneous ideal given by generators of a single common degree.

    Levels are built independently: degree-k rows come from monomial
    multiples of the mutually reduced generators, so entry sizes never
    compound across levels.  A known dimension stops the reduction pass of
    its level as soon as that rank is reached.
    """

    def __init__(self, generators: Sequence[HomogPoly], num_vars: int = 4):
        gens = [g for g in generators if g.terms]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        degs = {g.degree for g in gens}
        if len(degs) != 1:
            raise ValueError(f"generators must share one degree, got {sorted(degs)}")
        self.gen_degree = degs.pop()
        self.num_vars = num_vars
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

    def _shifts(self, k: int) -> np.ndarray:
        """[multiplier, generator column] -> level-k column of the shifted generator."""
        n, d = self.num_vars, self.gen_degree
        return shift_index(monomial_basis(n, d), monomial_basis(n, k - d), k, n)

    def _row_stream(self, k: int) -> List[Row]:
        gens = self._reduced_generators()
        # adding a fixed exponent vector preserves lex order, so the shifted
        # row is already sorted
        return [[(cols[c], a, b) for c, a, b in row] for cols in self._shifts(k).tolist() for row in gens]

    def _level_mod(self, k: int, p: int, s: int) -> np.ndarray:
        """rows_mod(self._row_stream(k), ...) at p, scattered from the
        generators reduced once per prime (see the module docstring)."""
        gens = self._cache.get(("mod", p))
        if gens is None:
            ncols = monomial_count(self.num_vars, self.gen_degree)
            gens = self._cache[("mod", p)] = modp.rows_mod(self._reduced_generators(), ncols, p, s)
        idx = self._shifts(k)
        out = np.zeros((len(idx), len(gens), monomial_count(self.num_vars, k)), dtype=np.int64)
        out[np.arange(len(idx))[:, None, None], np.arange(len(gens))[:, None], idx[:, None, :]] = gens
        return out.reshape(-1, out.shape[2])

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
        """dim I_k, given `bound`, a proven upper bound on it, or None.

        A prime whose rank meets the bound pins it (rank mod p never exceeds
        the exact rank); one above it raises ArithmeticError.  Otherwise the
        rows are ranked exactly, above the generator degree with the columns
        reversed, which keeps the entries far smaller than lex-greatest
        pivots do and cannot change a rank: it multiplies by an invertible
        permutation matrix.  No echelon is kept, since `_build`'s pivots and
        normal forms need the lex order.
        """
        if k in self._dims:
            return self._dims[k]
        if k < self.gen_degree:
            dim = 0
        elif bound is not None and sparse_rank_certificate(bound, lambda p, s: self._level_mod(k, p, s)):
            dim = bound
        else:
            rows, last = self._row_stream(k), monomial_count(self.num_vars, k) - 1
            # the reduced generators are already an echelon in lex order
            if k > self.gen_degree:
                rows = ([(last - c, a, b) for c, a, b in reversed(row)] for row in rows)
            dim = len(sparse_echelon(rows, bound))
        self._dims[k] = dim
        return dim

    def pivot_columns(self, k: int) -> List[int]:
        return [row[0][0] for row in self._build(k)]

    def quotient_basis(self, k: int) -> List[int]:
        """Column indices of monomials spanning (R/I)_k."""
        taken = set(self.pivot_columns(k))
        total = len(monomial_basis(self.num_vars, k))
        return [c for c in range(total) if c not in taken]

    # -- normal forms -----------------------------------------------------

    def reduction_table(self, k: int) -> Dict[int, Dict[int, GaussianRational]]:
        """Normal forms of the degree-k pivot columns, built once per degree."""
        key = ("rref", k)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = normal_form_table(self._build(k))
        return cached  # type: ignore[return-value]

    def normal_form(self, poly: HomogPoly) -> Dict[int, GaussianRational]:
        """Coordinates of poly mod I_k on the quotient monomial basis."""
        table = self.reduction_table(poly.degree)
        index = monomial_index(self.num_vars, poly.degree)
        acc: Dict[int, GaussianRational] = {}
        for mono, val in poly.coeffs.items():
            col = index[mono]
            sub = table.get(col)
            if sub is None:
                acc[col] = acc.get(col, _ZERO) + val
            else:
                for c2, v2 in sub.items():
                    acc[c2] = acc.get(c2, _ZERO) + val * v2
        return {c: v for c, v in acc.items() if v.re or v.im}


def sparse_row_rank(rows: Sequence[Row]) -> int:
    """Exact rank of a list of Gaussian-integer rows, no bound assumed."""
    return len(sparse_echelon(rows))
