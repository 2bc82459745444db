"""Planar slices of a curve along the pencil of planes x3 = t * x2.

The slice over a finite parameter t lives in the affine chart x2 = 1 with
coordinates (u, v) = (x0/x2, x1/x2); the chart at infinity uses x3 = 1
and the reciprocal parameter.  Slices are finite schemes of length
d = r(r+1)/2; their Hilbert functions stratify the parameter line.

Every plane of the pencil contains L0 = {x2 = x3 = 0}, the charts' line at
infinity.  A curve that misses L0 (`avoids_base_line`) has finite slices
with exact restricted Hilbert-Burch complexes, on which x2 is a
nonzerodivisor: the affine profile is `expected_hilbert`, and u^a v^b,
a + b <= r - 1, is a basis.  The degree-r part of slice generator g_k is
minor k on L0, row k of T (`ACMCurve.base_line`), so a degree-r monomial b
has the normal form b - sum c_k g_k with c = T^-1 e_b: a border basis
(Mourrain, AAECC 1999; Kehrein, Kreuzer and Robbiano 2005).  A curve that
meets L0 falls back to `AffineFiber`, the echelon of the truncated ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exact_algebra.ideals import Row, normal_form_table, sparse_echelon
from ..exact_algebra.linalg import ExactMatrix
from ..exact_algebra.scalars import GaussianRational
from .curve import avoids_base_line

# a slice generator: its nonzero Gaussian-integer numerators (a, b) by
# (u, v) exponent, over one positive denominator
Bivar = Tuple[Dict[Tuple[int, int], Tuple[int, int]], int]

_ZERO = GaussianRational(0, 0)
_ONE = GaussianRational(1, 0)


def fiber_generators(curve, t: GaussianRational, at_infinity: bool = False) -> List[Bivar]:
    """Generators of the slice ideal in (u, v), from the curve's minors, as
    Gaussian-integer numerators over one denominator.

    Finite chart: x0 = u, x1 = v, x2 = 1, x3 = t.  Infinity chart:
    x0 = u, x1 = v, x2 = t, x3 = 1 (t is the reciprocal parameter there).
    """
    ta, tb, te = t.integer_parts()
    out: List[Bivar] = []
    for minor in curve.minors:
        # t^e = (ta + tb*i)^e / te^e, so over minor.den * te^degree a term
        # with t^e gains the factor te^(degree - e)
        powers = [(1, 0)]
        for _ in range(minor.degree):
            a, b = powers[-1]
            powers.append((a * ta - b * tb, a * tb + b * ta))
        acc: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for (m0, m1, m2, m3), (a, b) in minor.terms.items():
            e = m2 if at_infinity else m3
            pa, pb = powers[e]
            scale = te ** (minor.degree - e)
            prev = acc.get((m0, m1), (0, 0))
            acc[(m0, m1)] = (prev[0] + (a * pa - b * pb) * scale, prev[1] + (a * pb + b * pa) * scale)
        terms = {k: ab for k, ab in acc.items() if ab[0] or ab[1]}
        if terms:
            out.append((terms, minor.den * te ** minor.degree))
    return out


def _columns(cutoff: int) -> List[Tuple[int, int]]:
    """Monomials of total degree <= cutoff, highest degree first."""
    cols = [(i, j) for i in range(cutoff + 1) for j in range(cutoff + 1 - i)]
    return sorted(cols, key=lambda m: (-(m[0] + m[1]), -m[0]))


class AffineFiber:
    """Echelonized truncation of a slice ideal up to a degree cutoff."""

    def __init__(self, generators: Sequence[Bivar], cutoff: int):
        if not generators:
            raise ValueError("no nonzero slice generators")
        self.cutoff = cutoff
        self.columns = _columns(cutoff)
        self.col_index = index = {m: i for i, m in enumerate(self.columns)}
        rows: List[Row] = []
        for g, _ in generators:
            gdeg = max(i + j for i, j in g)
            # the numerators are a nonzero multiple of the generator; a shift
            # keeps their column order
            terms = sorted(((m, a, b) for m, (a, b) in g.items()), key=lambda t: index[t[0]])
            for mi in range(cutoff - gdeg + 1):
                for mj in range(cutoff - gdeg - mi + 1):
                    rows.append([(index[(i + mi, j + mj)], a, b) for (i, j), a, b in terms])
        self.echelon = sparse_echelon(rows)
        self.pivot_cols = {row[0][0] for row in self.echelon}

    def hilbert(self, k: int) -> int:
        """dim of polynomials of degree <= k modulo the truncated ideal."""
        if k < 0:
            return 0
        k = min(k, self.cutoff)
        inside = sum(1 for row in self.echelon if sum(self.columns[row[0][0]]) <= k)
        return (k + 1) * (k + 2) // 2 - inside

    def profile(self) -> Tuple[int, ...]:
        return tuple(self.hilbert(k) for k in range(self.cutoff + 1))

    def stabilized(self) -> bool:
        return len({self.hilbert(self.cutoff - i) for i in range(3)}) == 1

    def quotient_basis(self) -> List[Tuple[int, int]]:
        """Non-pivot monomials; valid as a module basis once stabilized."""
        return [m for i, m in enumerate(self.columns) if i not in self.pivot_cols]

    def multiplication_matrices(self) -> Tuple[ExactMatrix, ExactMatrix]:
        """Matrices of multiplication by u and v on the quotient basis.

        Requires a stabilized profile so the basis sits two degrees below
        the cutoff and products stay inside the truncation.
        """
        if not self.stabilized():
            raise ValueError("profile not stabilized; cutoff too small")
        basis = self.quotient_basis()
        basis_index = {m: i for i, m in enumerate(basis)}
        prods = [(self.col_index[(a + 1, b)], self.col_index[(a, b + 1)]) for a, b in basis]
        # tails hold larger columns only, so the rows from the lowest product column on suffice
        low = min((min(pair) for pair in prods), default=len(self.columns))
        table = normal_form_table(self.echelon[sum(row[0][0] < low for row in self.echelon):])
        mats = []
        for side in (0, 1):
            cols = []
            for pair in prods:
                # a column with no normal form is a basis monomial
                col = [_ZERO] * len(basis)
                for c2, v2 in table.get(pair[side], {pair[side]: _ONE}).items():
                    col[basis_index[self.columns[c2]]] = v2
                cols.append(col)
            mats.append(ExactMatrix([list(row) for row in zip(*cols)]))
        return mats[0], mats[1]


def hilbert_profile(curve, t: GaussianRational, at_infinity: bool = False) -> Tuple[int, ...]:
    """H(0), ..., H(r+2), by the theorem when the curve misses L0."""
    if avoids_base_line(curve):
        return tuple(expected_hilbert(curve.r, k) for k in range(curve.r + 3))
    return AffineFiber(fiber_generators(curve, t, at_infinity=at_infinity), curve.r + 2).profile()


def _border_matrices(curve, gens: Sequence[Bivar], t: GaussianRational, entry) -> List[list]:
    """The u and v matrices of a curve that misses L0 on the basis u^a v^b,
    a + b <= r - 1, in `AffineFiber`'s order, entries `entry(a, b, den)` for
    (a + b*i) / den.  With T^-1 = A / L, the normal form of u^(r-j) v^j is
    -sum_k A[j][k] (N_k below degree r) / (L te^r): the degree-r part of
    generator k's numerators N_k is te^r times row k of T."""
    r = curve.r
    inverse, scale = curve.base_line_inverse
    den = scale * t.integer_parts()[2] ** r
    basis = _columns(r - 1)
    forms = []
    for row in inverse:
        acc = {m: [0, 0] for m in basis}
        for (g, _), (ca, cb) in zip(gens, row):
            for m, (a, b) in g.items():
                if m in acc:
                    acc[m][0] -= ca * a - cb * b
                    acc[m][1] -= ca * b + cb * a
        forms.append([entry(a, b, den) for a, b in acc.values()])
    one, zero = entry(den, 0, den), entry(0, 0, den)
    # row m, column (a, b): u or v times u^a v^b is a basis monomial or of degree r
    return [
        [[forms[b + dv][i] if a + b == r - 1 else one if m == (a + du, b + dv) else zero for a, b in basis]
         for i, m in enumerate(basis)]
        for du, dv in ((1, 0), (0, 1))
    ]


def fiber_multiplication_matrices(
    curve, t: GaussianRational, at_infinity: bool = False
) -> Tuple[ExactMatrix, ExactMatrix]:
    gens = fiber_generators(curve, t, at_infinity=at_infinity)
    if not avoids_base_line(curve):
        return AffineFiber(gens, curve.r + 2).multiplication_matrices()
    mu, mv = _border_matrices(
        curve, gens, t, lambda a, b, n: GaussianRational(Fraction(a, n), Fraction(b, n)))
    return ExactMatrix(mu), ExactMatrix(mv)


def fiber_points(
    curve,
    t: GaussianRational,
    at_infinity: bool = False,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Slice points as complex (u, v) pairs, via commuting multiplication ops.

    The matrices are exact; only the eigensolve is numeric.  Points are
    validated against every generator and sorted deterministically.
    Raises ArithmeticError when the slice is not reduced enough for the
    eigenvector method (clustered spectrum, large residuals).  A curve that
    meets L0 raises ValueError("profile not stabilized") on every slice: its
    point on L0 lies at infinity there, so the echelon never stabilizes.
    """
    gens = fiber_generators(curve, t, at_infinity=at_infinity)
    # int / int is correctly rounded: each part is the float nearest the
    # coefficient, so both routes give the same matrices
    cgens = [[(i, j, complex(a / den, b / den)) for (i, j), (a, b) in g.items()] for g, den in gens]
    if avoids_base_line(curve):
        nu, nv = map(np.array, _border_matrices(curve, gens, t, lambda a, b, n: complex(a / n, b / n)))
    else:
        mu, mv = AffineFiber(gens, curve.r + 2).multiplication_matrices()
        nu, nv = np.array(mu.to_complex()), np.array(mv.to_complex())
    rng = np.random.default_rng(2)
    for _ in range(6):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        comb = a * nu + b * nv
        vals, vecs = np.linalg.eig(comb)
        if len(vals) > 1:
            gap = min(abs(vals[i] - vals[j]) for i in range(len(vals)) for j in range(i))
            if gap < 1e-9 * max(1.0, np.abs(vals).max()):
                continue
        try:
            inv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            continue
        du = np.diag(inv @ nu @ vecs)
        dv = np.diag(inv @ nv @ vecs)
        off_u = inv @ nu @ vecs - np.diag(du)
        off_v = inv @ nv @ vecs - np.diag(dv)
        if max(np.abs(off_u).max(), np.abs(off_v).max()) > residual_tol * max(
            1.0, np.abs(du).max(), np.abs(dv).max()
        ):
            continue
        pts = np.stack([du, dv], axis=1)
        resid = max(
            abs(sum(c * (u ** i) * (v ** j) for i, j, c in g))
            for g in cgens
            for u, v in pts
        )
        if resid > residual_tol:
            continue
        order = np.lexsort([np.round(part(pts[:, c]), 9) for c in (1, 0) for part in (np.imag, np.real)])
        return pts[order]
    raise ArithmeticError("slice spectrum not separable; slice may be non-reduced")


def random_fiber_parameters(count: int, seed: int) -> List[GaussianRational]:
    """`count` distinct seeded plane parameters with small denominators."""
    rng = random.Random(seed)
    out: List[GaussianRational] = []
    while len(out) < count:
        t = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        if t not in out:
            out.append(t)
    return out


def expected_hilbert(r: int, k: int) -> int:
    """Slice Hilbert value when the points impose independent conditions."""
    if k < 0:
        return 0
    return (k + 1) * (k + 2) // 2 if k < r else r * (r + 1) // 2


@dataclass(frozen=True)
class FiberScheme:
    """One certified slice: parameter, chart, H(0), ..., H(r+2)."""

    r: int
    d: int
    t: GaussianRational
    at_infinity: bool
    profile: Tuple[int, ...]

    def hilbert_function(self) -> Tuple[int, ...]:
        return self.profile

    def length(self) -> int:
        return self.profile[-1]


def restrict_to_fiber(curve, t: GaussianRational, at_infinity: bool = False) -> FiberScheme:
    """Slice of a certified curve over one plane of the pencil.

    Refuses uncertified curves: the length and Hilbert statements below
    only follow from the resolution, so the certificate runs first.
    """
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; slice data unreliable")
    return FiberScheme(curve.r, curve.degree, t, at_infinity, hilbert_profile(curve, t, at_infinity))


def fiber_hilbert_function(scheme: FiberScheme) -> Tuple[int, ...]:
    """H(0), ..., H(r+2) of the slice."""
    return scheme.hilbert_function()


def stratum_check(scheme: FiberScheme) -> bool:
    """True when the slice sits in the open stratum: full Hilbert growth
    below degree r, then constant at the curve degree."""
    profile = scheme.hilbert_function()
    return all(profile[k] == expected_hilbert(scheme.r, k) for k in range(len(profile)))
