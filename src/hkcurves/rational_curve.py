"""Normal bundle splitting of parametrized rational space curves.

A map to projective 3-space is four binary forms of one degree d; when
the map is base-point-free and an immersion, its normal bundle splits as
a sum of two line bundles of degrees summing to 4d - 2.  Both degrees
are read off kernel dimensions of multiplication maps built from the
partial derivatives, at twist 2d - 2 for the smaller degree a and at
twists a - 1 and 2d - 1 to check the split model; base points and
ramification are ranks of such maps too.  Each rank is a mod-p rank
that meets the proven upper bound stated with its count (rank mod p
never exceeds the exact rank), else the exact sparse echelon: the
sandwich of `ideals.certified_rank`, with the band matrices mod p
scattered from the forms reduced once per prime, through index layouts
built once per shape (see `_FormRows`).
The forms are Gaussian-integer rows times one common denominator,
which scales every block alike and so keeps every rank.

A window of twists takes one modular elimination: the band at the top
twist T holds the band of each lower twist m as a prefix of its columns
(nesting: those columns are s^(T-m) times the twist-m columns, see
`_FormRows.ranks`), and the pivots an elimination takes below column w
rank the prefix of width w (pivot prefixes, see `modp`).  So the conormal
twists 2d - 2 and 2d - 1 are one (4d - 2) x 4d band
(`conormal_counts`), and the normal twists 0, 1 and 2 of
`riemann_roch_consistent` one 4(d + 3) x 11 band
(`normal_twisted_counts`).  Each twist still meets its own bound, or
takes the exact echelon of its own columns.  No rank is cached on a map
(only its forms mod p are): every window is ranked per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact_algebra import modp
from .exact_algebra.ideals import Row, certified_rank
from .exact_algebra.polys import UniPoly, binary_common_zero
from .exact_algebra.scalars import DRAW_SPAN, GaussianRational, first_draw, integer_pairs, random_gaussian_rows

BinaryForm = Tuple[GaussianRational, ...]  # coeffs[k] multiplies s^(d-k) t^k
IntForm = Sequence[Sequence[int]]  # Gaussian-integer (re, im) pairs, same order


def _as_form(coeffs: Sequence) -> BinaryForm:
    return tuple(
        c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs
    )


@dataclass(frozen=True)
class RationalCurveMap:
    """Map to projective 3-space by four binary forms of one degree."""

    forms: Tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm]

    def __post_init__(self):
        if len(self.forms) != 4:
            raise ValueError(f"need four forms, got {len(self.forms)}")
        forms = tuple(_as_form(f) for f in self.forms)
        lengths = {len(f) for f in forms}
        if len(lengths) != 1 or min(lengths) < 2:
            raise ValueError("need four forms of one degree >= 1")
        if all(all(c.is_zero() for c in f) for f in forms):
            raise ValueError("all four forms vanish identically")
        object.__setattr__(self, "forms", forms)

    @property
    def degree(self) -> int:
        return len(self.forms[0]) - 1

    @cached_property
    def _rows(self) -> "_FormRows":
        """f_a, ds f_a, dt f_a (rows 0-3, 4-7, 8-11), all times one common
        positive denominator of the coefficients."""
        d = self.degree
        pairs, _ = integer_pairs(c for f in self.forms for c in f)
        forms = [pairs[k * (d + 1) : (k + 1) * (d + 1)] for k in range(4)]
        ds = [[(a * (d - k), b * (d - k)) for k, (a, b) in enumerate(f[:-1])] for f in forms]
        dt = [[(a * k, b * k) for k, (a, b) in enumerate(f)][1:] for f in forms]
        return _FormRows(forms + ds + dt)

    @cached_property
    def validation(self) -> "MapValidation":
        """`validate_map` of this map, run once: the map is immutable."""
        return validate_map(self)


# a degree-5 split visits 4 shapes (2 in `validate_map`, the conormal
# window and the normal window), and an unbalanced one a fifth for twist
# a - 1, so 16 keeps a small map's layouts while a large-degree run does not
# hold every layout it ever built
@lru_cache(maxsize=16)
def _band_layout(
    lengths: Tuple[int, ...], width: int, blocks: Tuple, col_degrees: Tuple[int, ...], window: bool, interleave: bool
):
    """Shape and read-only (row, column, source) indices of the matrix of
    (g_c) -> (sum_c F[blocks[o][c]] * g_c)_o, g_c of degree col_degrees[c], for
    forms F of these lengths; source q * width + i is coefficient i of F[q].
    Each output o has one degree, so its rows do not depend on c.

    Entry (c, o, k, i), for k <= col_degrees[c] and i < lengths[q], puts
    coefficient i of F[q], q = blocks[o][c], at row rows0[c, o] + k + i and
    column cols0[c] + k, rows0 and cols0 the running sums of the block
    heights and widths; `np.nonzero` lists the entries in that order.

    A `window` band orders its columns by (k - col_degrees[c], c), so the
    columns of each lower twist form a prefix (see `_FormRows.ranks`).  An
    `interleave` band, whose outputs share one degree, orders its rows by
    (t-exponent, output).  Neither order changes a rank; each is kept where
    it made `modp._eliminate` faster: a degree-5 conormal window eliminates
    in 110 us with interleaved rows and 180 us without, while the normal
    window takes 55 us with its rows block by block and 100 us interleaved,
    and the single bands of `validate_map` are fastest block by block
    (2-core Xeon VM, Python 3.11.7, numpy 2.4)."""
    q = np.array(blocks, dtype=np.int64).reshape(len(blocks), len(col_degrees)).T
    cd = np.array(col_degrees, dtype=np.int64)
    n = np.array(lengths, dtype=np.int64)[q]
    heights = n + cd[:, None]
    rows0, cols0 = np.cumsum(heights, axis=1) - heights, np.cumsum(cd + 1) - (cd + 1)
    grid = (np.arange(cd.max() + 1)[:, None] <= cd[:, None, None, None]) & (np.arange(width) < n[:, :, None, None])
    c, o, k, i = np.nonzero(grid)
    rows, cols = rows0[c, o] + k + i, cols0[c] + k
    if window:
        col_c = np.repeat(np.arange(len(cd)), cd + 1)
        col_k = np.arange(len(col_c)) - cols0[col_c]
        cols = _positions(col_k - cd[col_c], col_c)[cols]
    if interleave:
        row_o = np.repeat(np.arange(len(blocks)), heights[0])
        rows = _positions(np.arange(len(row_o)) - rows0[0, row_o], row_o)[rows]
    arrays = rows, cols, q[c, o] * width + i
    for a in arrays:
        a.setflags(write=False)
    return ((int(heights[-1].sum()), int(cols0[-1] + cd[-1] + 1)), *arrays)


def _positions(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Where each index lands when the indices are sorted by (primary, secondary)."""
    order = np.lexsort((secondary, primary))
    out = np.empty_like(order)
    out[order] = np.arange(len(order))
    return out


class _FormRows:
    """Binary forms with Gaussian-integer coefficients, their rows reduced
    once per prime, and the banded multiplication matrices built on them.

    `level` hands a band matrix mod p to `ideals.certified_rank`.  A
    degree-5 split certifies eleven band matrices, all scattered from the
    same few forms, so each prime reduces the forms once here.  Reducing
    each band's own rows, the default level of `certified_rank`, instead read
    `rational-split` `item_p50_ms` 5.0 -> 6.9 ms (six runs each, seed 1,
    2-core Xeon VM, Python 3.11.7).  A band's index layout depends on the form
    lengths only, so `_band_layout` builds it once per shape, for all maps.
    """

    def __init__(self, forms: Sequence[IntForm]):
        self.ints = forms
        self.lengths = tuple(len(f) for f in forms)
        self.width = max(self.lengths)
        self._mod: Dict[int, np.ndarray] = {}

    def _reduced(self, p: int, s: int) -> np.ndarray:
        if p not in self._mod:
            rows = [[(i, a, b) for i, (a, b) in enumerate(f)] for f in self.ints]
            self._mod[p] = modp.rows_mod(rows, self.width, p, s)
        return self._mod[p]

    def band(self, blocks: List[List[int]], col_degrees: List[int], window: bool = False, interleave: bool = False):
        """`_band_layout` of these forms."""
        key = self.lengths, self.width, tuple(map(tuple, blocks)), tuple(col_degrees)
        return _band_layout(*key, window, interleave)

    def level(self, band):
        """The band matrix mod p, a `modp.sparse_rank_certificate` level,
        scattered from the forms reduced once per prime."""
        shape, rows, cols, src = band

        def level(p: int, s: int) -> np.ndarray:
            out = np.zeros(shape, dtype=np.int64)
            out[rows, cols] = self._reduced(p, s).ravel()[src]
            return out

        return level

    def exact_rows(self, band) -> List[Row]:
        """The band matrix as Gaussian-integer rows of (column, a, b) triples."""
        (nrows, _), rows, cols, src = band
        out: List[Row] = [[] for _ in range(nrows)]
        for c, r, q in sorted(zip(cols.tolist(), rows.tolist(), src.tolist())):
            a, b = self.ints[q // self.width][q % self.width]
            if a or b:
                out[r].append((c, a, b))
        return out

    def rank(self, blocks: List[List[int]], col_degrees: List[int], bound: int) -> int:
        """Rank of the band matrix under a proven upper bound: the bound
        when a prime meets it, else the exact sparse echelon, which raises
        ArithmeticError on a rank above the bound."""
        band = self.band(blocks, col_degrees)
        return certified_rank(lambda: self.exact_rows(band), band[0][1], bound, self.level(band))

    def ranks(
        self,
        blocks: List[List[int]],
        col_degrees: List[int],
        shifts: Sequence[int],
        bounds: Sequence[int],
        interleave: bool,
    ) -> List[int]:
        """Ranks of the bands at column degrees col_degrees[c] - shift, one
        per shift >= 0, each under its proven upper bound, from the one
        `window` band at `col_degrees`.

        Nesting: column (c, k) of the band stands for g_c = s^(e_c - k) t^k,
        e_c = col_degrees[c].  For k <= e_c - shift that is s^shift times
        the column (c, k) of the band at degrees e_c - shift, and
        multiplication by s^shift commutes with the band map and keeps the
        t-exponent of every coefficient: it is injective on coefficient
        vectors and moves no row.  So these columns are the lower band with
        zero rows added (the top t-exponents) and its rows relabelled, of
        the same rank over Q(i) and mod p, and the window order
        (k - e_c, c) makes them the first sum_c max(e_c - shift + 1, 0)
        columns.  `ideals.certified_rank` ranks all these prefixes from one
        elimination per prime; a prefix that no prime certifies takes the
        exact echelon of its own columns, and one above its bound raises
        ArithmeticError.
        """
        band = self.band(blocks, col_degrees, True, interleave)
        widths = [sum(max(e - shift + 1, 0) for e in col_degrees) for shift in shifts]
        return certified_rank(lambda: self.exact_rows(band), band[0][1], bounds, self.level(band), widths)


def _minors(partials: Sequence[IntForm]) -> List[IntForm]:
    """ds f_a * dt f_b - ds f_b * dt f_a for a < b, from rows ds f_0..3, dt f_0..3."""
    out = []
    for a, b in combinations(range(4), 2):
        acc = [[0, 0] for _ in range(2 * len(partials[0]) - 1)]
        for sign, u, v in ((1, partials[a], partials[4 + b]), (-1, partials[b], partials[4 + a])):
            for (i, (x, y)), (j, (z, w)) in product(enumerate(u), enumerate(v)):
                acc[i + j][0] += sign * (x * z - y * w)
                acc[i + j][1] += sign * (x * w + y * z)
        out.append(acc)
    return out


Witness = Optional[Tuple[GaussianRational, GaussianRational]]


@dataclass(frozen=True)
class MapValidation:
    base_point_free: bool
    immersion: bool
    ok: bool
    # [s0 : t0] where the property fails, when `binary_common_zero` finds one
    witness: Witness
    obstruction_gcd: Optional[UniPoly]


def _common_zero(rows: _FormRows, forms: range, e: int) -> Optional[Tuple[Witness, Optional[UniPoly]]]:
    """None when the degree-e forms rows.ints[q], q in `forms`, share no zero
    on the projective line, which their band's full row rank decides (see
    `validate_map`); else the witness and exact gcd of their common zero,
    from `polys.binary_common_zero`."""
    source = max(e - 1, 0)
    target = source + e + 1
    if rows.rank([list(forms)], [source] * len(forms), target) == target:
        return None
    return binary_common_zero([rows.ints[q] for q in forms])


def validate_map(curve_map: RationalCurveMap) -> MapValidation:
    """Base-point-freeness and immersion.

    A common zero of the four forms is a base point; a common zero of the
    six Jacobian minors is a point where the derivative drops rank.  Forms
    f_q of degree e share no zero exactly when (g_q) -> sum_q g_q f_q, from
    degree max(e-1, 0) to degree max(2e-1, e), has rank equal to its row
    count (`_FormRows.rank`).  A common zero is a zero of every sum, while
    some form of each degree >= 0 misses it.  With none, two combinations
    g, h share none either (each zero of a nonzero g is missed by every h
    off a hyperplane), and (a, b) -> a g + b h from degree e-1 to 2e-1 is
    square with their resultant as determinant.  (At e = 0 the target is
    the constants; the empty degree -1 is reached by every map.)  Exact
    gcds, which are monic and so ignore the forms' common scale, only
    report a proven common zero.
    """
    rows = curve_map._rows
    base = _common_zero(rows, range(4), curve_map.degree)
    if base is not None:
        return MapValidation(False, False, False, *base)
    minors = _FormRows(_minors(rows.ints[4:]))
    ramification = _common_zero(minors, range(6), 2 * curve_map.degree - 2)
    if ramification is not None:
        return MapValidation(True, False, False, *ramification)
    return MapValidation(True, True, True, None, None)


def conormal_counts(curve_map: RationalCurveMap, twists: Sequence[int]) -> List[int]:
    """`conormal_sections` at each twist, from one band at the largest twist
    T of at least d: the twist-m band is its first 4(m-d+1) columns in the
    window order (`_FormRows.ranks`)."""
    d = curve_map.degree
    ranked = [m for m in twists if m >= d]
    if not ranked:
        return [0] * len(twists)
    top = max(ranked)
    bounds = [min(2 * m, 4 * (m - d + 1)) for m in ranked]
    blocks = [[4, 5, 6, 7], [8, 9, 10, 11]]  # ds f_a, dt f_a
    ranks = curve_map._rows.ranks(blocks, [top - d] * 4, [top - m for m in ranked], bounds, True)
    counts = {m: 4 * (m - d + 1) - rank for m, rank in zip(ranked, ranks)}
    return [counts.get(m, 0) for m in twists]


def conormal_sections(curve_map: RationalCurveMap, m: int) -> int:
    """Sections of the twisted conormal sheaf: kernel of the derivative map.

    Vectors (g_0..g_3) of degree m-d forms with sum_a (ds f_a) g_a = 0 and
    sum_a (dt f_a) g_a = 0; left exactness makes the kernel exactly the
    sections of the rank-two kernel sheaf.  The matrix has 2m rows and
    4(m-d+1) columns, and its rank is at most the smaller count.
    """
    return conormal_counts(curve_map, [m])[0]


def normal_twisted_counts(curve_map: RationalCurveMap, twists: Sequence[int]) -> List[int]:
    """`normal_twisted_sections` at each twist, from one band at the largest
    twist T: the twist-m band is its first 3m + 5 columns in the window
    order (`_FormRows.ranks`)."""
    if min(twists) < 0:
        raise ValueError("primal count needs twist m >= 0")
    d, top = curve_map.degree, max(twists)
    bounds = [min(4 * (m + d + 1), 2 * m + 4) for m in twists]
    blocks = [[a, 4 + a, 8 + a] for a in range(4)]  # f_a, ds f_a, dt f_a
    ranks = curve_map._rows.ranks(blocks, [top, top + 1, top + 1], [top - m for m in twists], bounds, False)
    return [4 * (m + d + 1) - rank for m, rank in zip(twists, ranks)]


def normal_twisted_sections(curve_map: RationalCurveMap, m: int) -> int:
    """Sections of the twisted normal sheaf from the quotient presentation.

    The normal sheaf is the degree-d tautological quotient: subtracting
    the rank of (p, q1, q2) -> p*f + q1*(ds f) + q2*(dt f) from the
    ambient section count 4(m+d+1) leaves its sections, for m >= 0.
    The matrix has 4(m+d+1) rows and (m+1) + 2(m+2) columns.  Euler's
    identity s*(ds f) + t*(dt f) = d*f puts (d*h, -s*h, -t*h) in its
    kernel for each of the m+1 basis forms h of degree m, independent as
    their first components are, so the rank is at most
    min(rows, cols - (m+1)).
    """
    return normal_twisted_counts(curve_map, [m])[0]


@dataclass(frozen=True)
class SplittingType:
    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b or self.a + self.b != 4 * self.d - 2:
            raise ValueError("splitting degrees must be ordered and sum to 4d-2")


def normal_splitting_type(curve_map: RationalCurveMap) -> SplittingType:
    """Splitting degrees (a, b), a <= b, of the normal bundle, from three twists.

    Every bundle on the projective line splits (Grothendieck), so the
    conormal count at twist m is c(m) = max(m-a+1, 0) + max(m-b+1, 0).  As
    a + b = 4d-2 and a <= b, a <= 2d-1 <= b, so c(2d-2) = 2d-1-a: one rank
    gives a.  The count is 0 below twist d, which the model allows only for
    a >= d.  Twists a-1 (count 0) and 2d-1 then check the model, each ranked
    when it is at least d and not 2d-2; `riemann_roch_consistent` sees only
    a + b.  The profiles of (2d-2, 2d) and (2d-1, 2d-1) differ only at 2d-2,
    so that count rests on its certified rank alone.  Twists 2d-2 and 2d-1
    are ranked together, from one band (`conormal_counts`); a-1 lies below
    2d-2 only for an unbalanced split, and takes a band of its own once a is
    known.
    """
    if not curve_map.validation.ok:
        raise ValueError("map has base points or ramification; bundle not defined")
    d = curve_map.degree
    low, high = 2 * d - 2, 2 * d - 1
    c, c_high = conormal_counts(curve_map, [low, high])
    a, b = 2 * d - 1 - c, 2 * d - 1 + c
    if a < d:
        raise ArithmeticError(f"{c} conormal sections at twist {low} put a = {a} below the degree {d}")
    for m in [m for m in (a - 1, high) if m >= d and m != low]:
        got = c_high if m == high else conormal_counts(curve_map, [m])[0]
        expected = max(m - a + 1, 0) + max(m - b + 1, 0)
        if got != expected:
            raise ArithmeticError(f"section profile breaks the split model at twist {m}: {got} != {expected}")
    return SplittingType(d=d, a=a, b=b)


def stability_check(splitting: SplittingType) -> bool:
    """True when the splitting is balanced, the stable case for odd degree."""
    return splitting.a == splitting.b == 2 * splitting.d - 1


def riemann_roch_consistent(curve_map: RationalCurveMap, splitting: SplittingType) -> bool:
    """Primal section counts at twists 0, 1, 2 against the split model,
    independent route."""
    counts = normal_twisted_counts(curve_map, range(3))
    return counts == [(splitting.a + m + 1) + (splitting.b + m + 1) for m in range(3)]


def line_map() -> RationalCurveMap:
    return RationalCurveMap(((1, 0), (0, 1), (0, 0), (0, 0)))


def twisted_cubic_map() -> RationalCurveMap:
    return RationalCurveMap(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def random_rational_map(d: int, seed: int) -> RationalCurveMap:
    """Random valid degree-d map with small Gaussian integer coefficients."""
    if d < 1:
        raise ValueError("need degree >= 1")
    rng = random.Random(seed * 1_000_003 + d)
    draw = lambda: RationalCurveMap(random_gaussian_rows(rng, 4, d + 1, DRAW_SPAN))
    return first_draw("valid map", draw, lambda curve_map: curve_map.validation.ok, d=d, seed=seed)
