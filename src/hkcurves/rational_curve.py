"""Normal bundle splitting of parametrized rational space curves.

A map to projective 3-space is four binary forms of one degree d; when
the map is base-point-free and an immersion, its normal bundle splits as
a sum of two line bundles of degrees summing to 4d - 2.  Both degrees
are read off exact kernel dimensions of multiplication maps built from
the partial derivatives, swept over twists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.polys import UniPoly, uni_gcd
from .exact_algebra.scalars import GaussianRational, random_gaussian_rows

_ZERO = GaussianRational(0)

BinaryForm = Tuple[GaussianRational, ...]  # coeffs[k] multiplies s^(d-k) t^k


def _as_form(coeffs: Sequence) -> BinaryForm:
    return tuple(
        c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs
    )


@dataclass(frozen=True)
class RationalCurveMap:
    """Map to projective 3-space by four binary forms of one degree."""

    forms: Tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm]

    def __post_init__(self):
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

    def evaluate(self, s: GaussianRational, t: GaussianRational) -> List[GaussianRational]:
        d = self.degree
        spow = [GaussianRational(1)]
        tpow = [GaussianRational(1)]
        for _ in range(d):
            spow.append(spow[-1] * s)
            tpow.append(tpow[-1] * t)
        out = []
        for f in self.forms:
            acc = _ZERO
            for k, c in enumerate(f):
                acc = acc + c * spow[d - k] * tpow[k]
            out.append(acc)
        return out


def _deriv_s(f: BinaryForm) -> BinaryForm:
    d = len(f) - 1
    return tuple(f[k] * (d - k) for k in range(d))


def _deriv_t(f: BinaryForm) -> BinaryForm:
    d = len(f) - 1
    return tuple(f[k + 1] * (k + 1) for k in range(d))


def _form_mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    out = [_ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def _form_sub(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    return tuple(a - b for a, b in zip(f, g))


def _dehom(f: BinaryForm) -> UniPoly:
    """f(1, t) as a univariate polynomial."""
    return UniPoly(list(f))


def _rational_root_witness(g: UniPoly) -> Optional[GaussianRational]:
    """A verified exact root of g, when the numeric candidates rationalize."""
    cs = [complex(c) for c in g.coeffs]
    candidates = np.roots(cs[::-1]) if g.degree >= 1 else []
    for z in candidates:
        for limit in (1, 12, 10**6):
            t0 = GaussianRational.from_complex(complex(z), limit=limit)
            if g.evaluate(t0).is_zero():
                return t0
    return None


@dataclass(frozen=True)
class MapValidation:
    base_point_free: bool
    immersion: bool
    ok: bool
    # [s0 : t0] where the property fails, when a root rationalizes exactly
    witness: Optional[Tuple[GaussianRational, GaussianRational]]
    obstruction_gcd: Optional[UniPoly]


def _common_zero_witness(
    polys: List[UniPoly], leading: List[GaussianRational]
) -> Tuple[bool, Optional[Tuple[GaussianRational, GaussianRational]], Optional[UniPoly]]:
    """Shared zero of binary forms given dehomogenizations and t-top coefficients."""
    if all(c.is_zero() for c in leading):
        return True, (GaussianRational(0), GaussianRational(1)), None
    g = uni_gcd(p for p in polys if p.degree >= 0)
    if g.degree <= 0:
        return False, None, None
    root = _rational_root_witness(g)
    if root is not None:
        return True, (GaussianRational(1), root), g
    return True, None, g


def validate_map(curve_map: RationalCurveMap) -> MapValidation:
    """Base-point-freeness and immersion, both decided exactly.

    A common zero of the four forms is a base point; a common zero of the
    six Jacobian minors is a point where the derivative drops rank.  Both
    are located through exact univariate gcds, with a verified rational
    witness when one of the numeric roots rationalizes.
    """
    forms = curve_map.forms
    has_base, witness, gcd = _common_zero_witness(
        [_dehom(f) for f in forms], [f[-1] for f in forms]
    )
    if has_base:
        return MapValidation(False, False, False, witness, gcd)
    ds = [_deriv_s(f) for f in forms]
    dt = [_deriv_t(f) for f in forms]
    minors = [
        _form_sub(_form_mul(ds[a], dt[b]), _form_mul(ds[b], dt[a]))
        for a in range(4)
        for b in range(a + 1, 4)
    ]
    ramified, witness, gcd = _common_zero_witness(
        [_dehom(m) for m in minors], [m[-1] for m in minors]
    )
    if ramified:
        return MapValidation(True, False, False, witness, gcd)
    return MapValidation(True, True, True, None, None)


def _multiplication_rank(blocks: List[List[BinaryForm]], col_degrees: List[int]) -> int:
    """Rank of (g_c) -> (sum_c blocks[row][c] * g_c) on binary form spaces.

    blocks[row][c] multiplies the c-th input form into the row-th output;
    input c runs over forms of degree col_degrees[c].  Zero-dimensional
    inputs are skipped.
    """
    # every block row has a single output degree by construction
    mat_cols: List[List[GaussianRational]] = []
    for c, cd in enumerate(col_degrees):
        if cd < 0:
            continue
        for k in range(cd + 1):
            col: List[GaussianRational] = []
            for row in blocks:
                b = row[c]
                odeg = len(b) - 1 + cd
                coeffs = [_ZERO] * (odeg + 1)
                for i, v in enumerate(b):
                    coeffs[i + k] = v
                col.extend(coeffs)
            mat_cols.append(col)
    if not mat_cols:
        return 0
    nrows = len(mat_cols[0])
    mat = ExactMatrix([[mat_cols[j][i] for j in range(len(mat_cols))] for i in range(nrows)])
    return mat.rank()


def conormal_sections(curve_map: RationalCurveMap, m: int) -> int:
    """Sections of the twisted conormal sheaf: kernel of the derivative map.

    Vectors (g_0..g_3) of degree m-d forms with sum_a (ds f_a) g_a = 0 and
    sum_a (dt f_a) g_a = 0; left exactness makes the kernel exactly the
    sections of the rank-two kernel sheaf.
    """
    d = curve_map.degree
    if m < d:
        return 0
    ds = [_deriv_s(f) for f in curve_map.forms]
    dt = [_deriv_t(f) for f in curve_map.forms]
    cols = 4 * (m - d + 1)
    rank = _multiplication_rank([ds, dt], [m - d] * 4)
    return cols - rank


def normal_twisted_sections(curve_map: RationalCurveMap, m: int) -> int:
    """Sections of the twisted normal sheaf from the quotient presentation.

    The normal sheaf is the degree-d tautological quotient: subtracting
    the rank of (p, q1, q2) -> p*f + q1*(ds f) + q2*(dt f) from the
    ambient section count 4(m+d+1) leaves its sections, for m >= 0.
    """
    if m < 0:
        raise ValueError("primal count needs twist m >= 0")
    d = curve_map.degree
    f = list(curve_map.forms)
    ds = [_deriv_s(g) for g in f]
    dt = [_deriv_t(g) for g in f]
    blocks = [[f[a], ds[a], dt[a]] for a in range(4)]
    rank = _multiplication_rank(blocks, [m, m + 1, m + 1])
    return 4 * (m + d + 1) - rank


@dataclass(frozen=True)
class SplittingType:
    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b or self.a + self.b != 4 * self.d - 2:
            raise ValueError("splitting degrees must be ordered and sum to 4d-2")

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.a, self.b)


def normal_splitting_type(curve_map: RationalCurveMap) -> SplittingType:
    """Splitting degrees (a, b), a <= b, of the normal bundle.

    The first twist with a conormal section is a; the degree sum fixes b;
    the full section profile through twist b+2 is then verified against
    the split model, so a wrong first kernel cannot slip through.
    """
    report = validate_map(curve_map)
    if not report.ok:
        raise ValueError("map has base points or ramification; bundle not defined")
    d = curve_map.degree
    a = None
    for m in range(d, 2 * d):
        if conormal_sections(curve_map, m) > 0:
            a = m
            break
    if a is None:
        raise ArithmeticError("no conormal sections through the balanced twist")
    b = 4 * d - 2 - a
    for m in range(d, b + 3):
        expected = max(m - a + 1, 0) + max(m - b + 1, 0)
        got = conormal_sections(curve_map, m)
        if got != expected:
            raise ArithmeticError(
                f"section profile breaks the split model at twist {m}: {got} != {expected}"
            )
    return SplittingType(d=d, a=a, b=b)


def stability_check(splitting: SplittingType) -> bool:
    """True when the splitting is balanced, the stable case for odd degree."""
    return splitting.a == splitting.b == 2 * splitting.d - 1


def riemann_roch_consistent(curve_map: RationalCurveMap, splitting: SplittingType,
                            twists: Sequence[int] = (0, 1, 2)) -> bool:
    """Primal section counts against the split model, independent route."""
    return all(
        normal_twisted_sections(curve_map, m)
        == (splitting.a + m + 1) + (splitting.b + m + 1)
        for m in twists
    )


def line_map() -> RationalCurveMap:
    return RationalCurveMap(((1, 0), (0, 1), (0, 0), (0, 0)))


def twisted_cubic_map() -> RationalCurveMap:
    return RationalCurveMap(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def random_rational_map(d: int, seed: int, span: int = 3, max_tries: int = 64) -> RationalCurveMap:
    """Random valid degree-d map with small Gaussian integer coefficients."""
    if d < 1:
        raise ValueError("need degree >= 1")
    rng = random.Random(seed * 1_000_003 + d)
    for _ in range(max_tries):
        forms = random_gaussian_rows(rng, 4, d + 1, span)
        try:
            curve_map = RationalCurveMap(forms)
        except ValueError:
            continue
        if validate_map(curve_map).ok:
            return curve_map
    raise RuntimeError(f"no valid map after {max_tries} draws (d={d}, seed={seed})")
