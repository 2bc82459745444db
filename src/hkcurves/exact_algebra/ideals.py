"""Graded pieces of homogeneous ideals as sparse echelon forms.

Rows are sparse vectors over Q(i) indexed by monomials of a fixed degree,
stored as ascending (column, value) pairs with the pivot first.  Column
order follows monomial_basis, so the pivot is the lex-greatest monomial.
Pivot rows are kept monic; reduced fractions in an echelon form are
bounded by minor ratios of the input, which keeps entry sizes flat along
long reduction chains.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .modp import sparse_rank_certificate
from .polys import HomogPoly, monomial_basis, monomial_index
from .scalars import GaussianRational

Row = List[Tuple[int, GaussianRational]]

_ZERO = GaussianRational(0, 0)
_ONE = GaussianRational(1, 0)


def monic_row(row: Row) -> Row:
    lead = row[0][1]
    if lead == _ONE:
        return row
    inv = _ONE / lead
    return [(row[0][0], _ONE)] + [(c, v * inv) for c, v in row[1:]]


def combine_rows(row: Row, piv: Row) -> Row:
    """row - lead(row) * piv, where piv is monic and shares row's lead column."""
    factor = row[0][1]
    out: Row = []
    i, j = 1, 1
    nr, np_ = len(row), len(piv)
    while i < nr and j < np_:
        cr, cp = row[i][0], piv[j][0]
        if cr < cp:
            out.append(row[i])
            i += 1
        elif cr > cp:
            out.append((cp, -(factor * piv[j][1])))
            j += 1
        else:
            v = row[i][1] - factor * piv[j][1]
            if v.re or v.im:
                out.append((cr, v))
            i += 1
            j += 1
    if i < nr:
        out.extend(row[i:])
    while j < np_:
        out.append((piv[j][0], -(factor * piv[j][1])))
        j += 1
    return out


def _poly_to_row(poly: HomogPoly, degree: int, num_vars: int) -> Row:
    basis = monomial_basis(num_vars, degree)
    index = {m: i for i, m in enumerate(basis)}
    entries = sorted((index[m], v) for m, v in poly.coeffs.items())
    return [(c, v) for c, v in entries if v.re or v.im]


def sparse_echelon(rows: Iterable[Row], target: Optional[int] = None) -> List[Row]:
    """Monic echelon rows of the span of `rows`, sorted by pivot column.

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
            pivots[row[0][0]] = monic_row(row)
    if target is None or len(pivots) < target:
        for row in deferred:
            while row:
                piv = pivots.get(row[0][0])
                if piv is None:
                    break
                row = combine_rows(row, piv)
            if row:
                pivots[row[0][0]] = monic_row(row)
                if target is not None and len(pivots) >= target:
                    break
    if target is not None and len(pivots) > target:
        raise ArithmeticError(f"rank {len(pivots)} exceeds certified bound {target}")
    return [pivots[c] for c in sorted(pivots)]


def normal_form_table(echelon: Sequence[Row]) -> Dict[int, Dict[int, GaussianRational]]:
    """Normal forms of pivot columns: pivot column -> {non-pivot column: coeff}."""
    table: Dict[int, Dict[int, GaussianRational]] = {}
    # tails only hold columns larger than the pivot, so descending pivot
    # order sees every tail pivot already resolved
    for row in reversed(echelon):
        acc: Dict[int, GaussianRational] = {}
        for col, val in row[1:]:
            sub = table.get(col)
            if sub is None:
                acc[col] = acc.get(col, _ZERO) - val
            else:
                for c2, v2 in sub.items():
                    acc[c2] = acc.get(c2, _ZERO) - val * v2
        table[row[0][0]] = {c: v for c, v in acc.items() if v.re or v.im}
    return table


class GradedIdeal:
    """Homogeneous ideal given by generators of a single common degree.

    Levels are built independently: degree-k rows come from monomial
    multiples of the mutually reduced generators, so entry sizes never
    compound across levels.  An optional certified dimension bound stops
    the reduction pass as soon as the known rank is reached.
    """

    def __init__(self, generators: Sequence[HomogPoly], num_vars: int = 4):
        gens = [g for g in generators if g.coeffs]
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
        self._bound: Optional[Callable[[int], int]] = None

    def set_certified_bound(self, bound: Callable[[int], int]) -> None:
        """bound(k) is a proven upper bound for dim I_k; reduction stops there."""
        self._bound = bound

    # -- construction ----------------------------------------------------

    def _reduced_generators(self) -> List[Row]:
        cached = self._cache.get("gens")
        if cached is None:
            cached = self._cache["gens"] = sparse_echelon(
                _poly_to_row(g, self.gen_degree, self.num_vars) for g in self.generators
            )
        return cached  # type: ignore[return-value]

    def _row_stream(self, k: int) -> List[Row]:
        gens = self._reduced_generators()
        shift_deg = k - self.gen_degree
        gen_basis = monomial_basis(self.num_vars, self.gen_degree)
        index = {m: i for i, m in enumerate(monomial_basis(self.num_vars, k))}
        out: List[Row] = []
        for mult in monomial_basis(self.num_vars, shift_deg):
            # adding a fixed exponent vector preserves lex order, so the
            # shifted row is already sorted
            for row in gens:
                out.append(
                    [
                        (index[tuple(a + b for a, b in zip(gen_basis[c], mult))], v)
                        for c, v in row
                    ]
                )
        return out

    def _build(self, k: int) -> List[Row]:
        if k in self._levels:
            return self._levels[k]
        if k < self.gen_degree:
            self._levels[k] = []
            return []
        target = self._bound(k) if self._bound is not None else None
        level = sparse_echelon(self._row_stream(k), target)
        self._levels[k] = level
        return level

    # -- queries ----------------------------------------------------------

    def dimension(self, k: int) -> int:
        if k in self._dims:
            return self._dims[k]
        if k in self._levels:
            dim = len(self._levels[k])
        elif k < self.gen_degree:
            dim = 0
        elif self._bound is not None:
            # rank mod p never exceeds the exact rank; meeting the proven
            # upper bound pins the exact value without exact elimination
            bound = self._bound(k)
            ncols = len(monomial_basis(self.num_vars, k))
            if sparse_rank_certificate(self._row_stream(k), ncols, bound):
                dim = bound
            else:
                dim = len(self._build(k))
        else:
            dim = len(self._build(k))
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
    """Exact rank of a list of sparse rows, no bound assumed."""
    return len(sparse_echelon(rows))
