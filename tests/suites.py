"""Seeded invariance suites shared by the unit tests and the acceptance gate.

Each suite returns the number of instances checked; any violated identity
raises AssertionError inside, so a return means every instance held.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

from hkcurves.acm_curve import ACMCurve, LinearMatrix, random_real_curve, random_sigma_curve
from hkcurves.acm_curve.fibers import (
    Bivar,
    backward_errors,
    fiber_generators,
    fiber_multiplication_matrices,
    fiber_points,
)
from hkcurves.exact_algebra.ideals import GradedIdeal, normal_form_table, reduced_echelon, sparse_echelon, sparse_rows
from hkcurves.exact_algebra.linalg import ExactMatrix, random_invertible
from hkcurves.exact_algebra.polys import HomogPoly, UniPoly, monomial_basis, monomial_index
from hkcurves.exact_algebra.scalars import DRAW_SPAN, GaussianRational, I, first_draw, integer_pairs, random_gaussian_rows
from hkcurves.pencil import (
    _check_shape,
    _minor_table,
    apply_gauge,
    canonical_pair,
    is_injective_pencil,
    kronecker_reduce,
    minor_coefficient_rank,
    pair_stabilizer_dimension,
    random_injective_pencil,
)
from hkcurves.reality import reality_conjugate

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def random_gauss(rng: random.Random, span: int = 6) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def swapped(curve: ACMCurve) -> ACMCurve:
    """The curve with A3 and A4 swapped, which swaps x2 and x3: its finite
    slice over t is `curve`'s slice over the plane x2 = t * x3, the chart at
    infinity with the reciprocal parameter."""
    A1, A2, A3, A4 = curve.coeffs
    return ACMCurve(LinearMatrix(curve.r, A1, A2, A4, A3))


# ---------------------------------------------------------------------------
# references the library does not use: dense matrix arithmetic, rows cleared
# of denominators, a pencil's minors as polynomials in lambda, forms built
# from Q(i) coefficients, added, scaled and evaluated, |z|^2, a splitting
# type's degree pair, and the invariant pencil drawn as Q(i) entries


def zero_matrix(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix([[ZERO] * cols for _ in range(rows)], cols=cols)


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def mat_add(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    return ExactMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A.data, B.data)], cols=A.cols)


def mat_scale(A: ExactMatrix, c) -> ExactMatrix:
    c = c if isinstance(c, GaussianRational) else GaussianRational(c)
    return ExactMatrix([[z * c for z in row] for row in A.data], cols=A.cols)


def mat_sub(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    return mat_add(A, mat_scale(B, -ONE))


def mat_conj(A: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([[z.conj() for z in row] for row in A.data], cols=A.cols)


def mat_is_zero(A: ExactMatrix) -> bool:
    return all(z.is_zero() for row in A.data for z in row)


def to_complex(A: ExactMatrix) -> list:
    """Nested lists of Python complex (floating boundary)."""
    return [[complex(z) for z in row] for row in A.data]


def integer_row(row) -> list:
    """The (key, Q(i) value) row times the lcm of its denominators, as
    (key, a, b) triples for its nonzero entries a + b*i, in the given order."""
    row = [(c, v) for c, v in row if v.re or v.im]
    pairs, _ = integer_pairs(v for _, v in row)
    return [(c, a, b) for (c, _), (a, b) in zip(row, pairs)]


def pencil_minors(A1: ExactMatrix, A2: ExactMatrix) -> List[UniPoly]:
    """Maximal minors of A1 + lambda*A2 as polynomials in lambda, degree <= r,
    from the table of `pencil._minor_table`: the sign of row i undone."""
    _check_shape(A1, A2)
    T, den = _minor_table(A1, A2)
    return [UniPoly([GaussianRational.over(a, b, (-1) ** i * den) for a, b in row]) for i, row in enumerate(T)]


def poly_scale(f: HomogPoly, c) -> HomogPoly:
    """c * f, exact."""
    c = c if isinstance(c, GaussianRational) else GaussianRational(c)
    ca, cb, e = c.integer_parts()
    out = {m: (a * ca - b * cb, a * cb + b * ca) for m, (a, b) in f.terms.items()}
    return HomogPoly(f.num_vars, f.degree, out, f.den * e)


def poly_evaluate(f: HomogPoly, point) -> GaussianRational:
    """Exact value of f at a tuple of GaussianRational (or int) values."""
    vals = [p if isinstance(p, GaussianRational) else GaussianRational(p) for p in point]
    total = ZERO
    for mono, c in f.coeffs.items():
        term = c
        for v, e in zip(vals, mono):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def gauss_norm(z: GaussianRational) -> Fraction:
    """|z|^2, exact."""
    return z.re * z.re + z.im * z.im


def splitting_pair(split) -> Tuple[int, int]:
    """(a, b) of a `rational_curve.SplittingType`."""
    return (split.a, split.b)


def form(num_vars: int, degree: int, coeffs: dict) -> HomogPoly:
    """The form sum_m coeffs[m] x^m from its Q(i) (or int) coefficients by
    monomial, cleared to numerators over one denominator by
    `scalars.integer_pairs`; a monomial of another degree or variable count
    raises ValueError."""
    parts = {}
    for mono, c in coeffs.items():
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        if c.is_zero():
            continue
        if len(mono) != num_vars or sum(mono) != degree or min(mono) < 0:
            raise ValueError(f"monomial {mono} not of degree {degree}")
        parts[tuple(mono)] = c
    pairs, den = integer_pairs(parts.values())
    return HomogPoly(num_vars, degree, dict(zip(parts, pairs)), den)


def poly_add(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """f + g, exact, for forms of one degree in one set of variables."""
    if f.num_vars != g.num_vars or f.degree != g.degree:
        raise ValueError("degree mismatch")
    den = lcm(f.den, g.den)
    s, t = den // f.den, den // g.den
    out = {m: (a * s, b * s) for m, (a, b) in f.terms.items()}
    for m, (a, b) in g.terms.items():
        prev = out.get(m, (0, 0))
        out[m] = (prev[0] + a * t, prev[1] + b * t)
    return HomogPoly(f.num_vars, f.degree, out, den)


def poly_neg(f: HomogPoly) -> HomogPoly:
    """-f, exact."""
    return HomogPoly(f.num_vars, f.degree, {m: (-a, -b) for m, (a, b) in f.terms.items()}, f.den)


def poly_sub(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """f - g, exact."""
    return poly_add(f, poly_neg(g))


def linear_form(coeffs) -> HomogPoly:
    """The form sum_i coeffs[i] x_i, built from its Q(i) coefficients."""
    n = len(coeffs)
    return form(n, 1, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs)})


def form_rows(forms: Sequence[HomogPoly]) -> List[List[Tuple[int, int]]]:
    """The forms' numerators as dense (re, im) pair rows over the monomial
    basis of the first form's degree, the format of a minor table's rows;
    each row is its form times the form's denominator."""
    basis = monomial_basis(forms[0].num_vars, forms[0].degree)
    return [[f.terms.get(m, (0, 0)) for m in basis] for f in forms]


def form_ideal(forms: Sequence[HomogPoly]) -> GradedIdeal:
    """`GradedIdeal` of forms of one degree and variable count, built from
    their `form_rows`: row scales change no level."""
    return GradedIdeal(form_rows(forms), forms[0].num_vars, forms[0].degree)


def sigma_form(f: HomogPoly) -> HomogPoly:
    """Pullback of a form in four variables by the real structure, on its
    terms: conj(a + b*i) at x1^m0 x0^m1 x3^m2 x2^m3, negated where m0 + m2
    is odd.  The reference for `reality.sigma_row`; applied twice it gives
    (-1)^degree times the form."""
    if f.num_vars != 4:
        raise ValueError("expected a form in 4 variables")
    terms = {}
    for (m0, m1, m2, m3), (a, b) in f.terms.items():
        # conj(a + b*i), negated where m0 + m2 is odd; no two monomials merge
        terms[(m1, m0, m3, m2)] = (-a, b) if (m0 + m2) % 2 else (a, -b)
    return HomogPoly(4, f.degree, terms, f.den)


def rational_sigma_pencil(r: int, seed: int) -> Tuple[ExactMatrix, ...]:
    """`reality.make_sigma_invariant_pencil` drawn as GaussianRational
    entries: the same rng, draws and order, each drawn linear form c paired
    with its image (conj c1, -conj c0, conj c3, -conj c2), and each
    coefficient matrix built from its entries."""
    rng = random.Random(1000003 * seed + r)
    n = r + 1

    def image(c):
        c0, c1, c2, c3 = c
        return (c1.conj(), -c0.conj(), c3.conj(), -c2.conj())

    def draw():
        entries = [[None] * r for _ in range(n)]
        if r % 2 == 1:
            for k in range(n // 2):
                for j in range(r):
                    c = random_gaussian_rows(rng, 1, 4, DRAW_SPAN)[0]
                    entries[2 * k][j] = c
                    entries[2 * k + 1][j] = image(c)
        else:
            for k in range(r // 2):
                for i in range(n):
                    c = random_gaussian_rows(rng, 1, 4, DRAW_SPAN)[0]
                    entries[i][2 * k] = c
                    entries[i][2 * k + 1] = image(c)
        return tuple(ExactMatrix([[entries[i][j][v] for j in range(r)] for i in range(n)]) for v in range(4))

    return first_draw("injective pencil", draw, lambda mats: is_injective_pencil(*mats[:2]).ok)


def entry_forms(mats: Sequence[ExactMatrix]) -> List[List[HomogPoly]]:
    """The entries of sum_v A_v x_v as `linear_form`s, from the Q(i) entries
    of the coefficient matrices A_v: the tests' reference for the matrix of
    linear forms that `polys.form_pairs` reads off their integer forms."""
    return [[linear_form([A[i, j] for A in mats]) for j in range(mats[0].cols)] for i in range(mats[0].rows)]


def slice_columns(cutoff: int) -> List[Tuple[int, int]]:
    """Monomials (a, b) of u^a v^b of total degree <= cutoff, highest degree first."""
    cols = [(i, j) for i in range(cutoff + 1) for j in range(cutoff + 1 - i)]
    return sorted(cols, key=lambda m: (-(m[0] + m[1]), -m[0]))


class AffineFiber:
    """Echelonized truncation of a slice ideal up to a degree cutoff: the
    tests' reference for the border basis of `acm_curve.fibers`.

    For a curve that misses L0 and cutoff r + 2 the profile stabilizes at
    the slice length, and the multiplication matrices on the non-pivot
    monomials are the library's.  For a curve that meets L0 the profile
    never stabilizes: its point on L0 is at infinity on every slice.
    """

    def __init__(self, generators: Sequence[Bivar], cutoff: int):
        if not generators:
            raise ValueError("no nonzero slice generators")
        self.cutoff = cutoff
        self.columns = slice_columns(cutoff)
        self.col_index = index = {m: i for i, m in enumerate(self.columns)}
        rows = []
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
                col = [ZERO] * len(basis)
                for c2, v2 in table.get(pair[side], {pair[side]: ONE}).items():
                    col[basis_index[self.columns[c2]]] = v2
                cols.append(col)
            mats.append(ExactMatrix([list(row) for row in zip(*cols)]))
        return mats[0], mats[1]


# ---------------------------------------------------------------------------
# the per-slice route: the oracle for the stacked slice pass of `fibers`


def reference_generators(curve: ACMCurve, t: GaussianRational) -> List[Bivar]:
    """The slice generators by substituting t into each minor alone: the
    reference for `fiber_generators`, which reads the curve's slice tables."""
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
            pa, pb = powers[m3]
            scale = te ** (minor.degree - m3)
            prev = acc.get((m0, m1), (0, 0))
            acc[(m0, m1)] = (prev[0] + (a * pa - b * pb) * scale, prev[1] + (a * pb + b * pa) * scale)
        terms = {k: ab for k, ab in acc.items() if ab[0] or ab[1]}
        if terms:
            out.append((terms, minor.den * te ** minor.degree))
    return out


def reference_slice_tables(curve: ACMCurve):
    """`ACMCurve.slice_tables` built from the minors' forms: each generator
    row from its minor's terms over that minor's reduced denominator, and T
    from its x0^(r-j) x1^j terms.  Row scales keep T's rank and the
    rationals of both tables, and with D = 1 the numerators too."""
    r = curve.r
    gens = np.zeros((2, r + 1, r + 1, r + 1, r + 1), dtype=object)
    for k, minor in enumerate(curve.minors):
        for (i, j, _, e), ab in minor.terms.items():
            gens[:, k, i, j, e] = ab
    gens_den = np.array([m.den for m in curve.minors], dtype=object).reshape(-1, 1, 1)
    T = tuple(tuple(m.terms.get((r - j, j, 0, 0), (0, 0)) for j in range(r + 1)) for m in curve.minors)
    if minor_coefficient_rank(T) < r + 1:
        return gens, gens_den, None, None
    inverse, scale = ExactMatrix.from_integer_form(T, 1, r + 1).inverse().integer_form
    a_re, a_im = np.moveaxis(np.array(inverse, dtype=object), -1, 0)
    basis = sorted(((a, b) for a in range(r) for b in range(r - a)), key=lambda m: (-sum(m), -m[0]))
    d = len(basis)
    low_re, low_im = gens[:, :, [a for a, _ in basis], [b for _, b in basis]].reshape(2, r + 1, -1)
    forms = np.stack([a_im @ low_im - a_re @ low_re, -(a_re @ low_im + a_im @ low_re)]).reshape(2, r + 1, d, r + 1)
    mats = np.zeros((2, 2, d, d, r + 1), dtype=object)
    for side, (du, dv) in enumerate(((1, 0), (0, 1))):
        for col, (a, b) in enumerate(basis):
            if a + b == r - 1:
                mats[:, side, :, col] = forms[:, b + dv]
            else:
                mats[0, side, basis.index((a + du, b + dv)), col, 0] = scale
    return gens, gens_den, mats, np.full((1, 1, 1), scale, dtype=object)


def table_curves(r: int) -> List[ACMCurve]:
    """Three curves whose minor tables differ in kind: a drawn one (D = 1),
    the same matrix with A1 over 2 and A3 over 3 (D = 6, numerators not
    reduced), and the drawn matrix times 2^40 (D = 1, a table lifted past
    int64; the same curve, every minor times 2^(40 r))."""
    drawn = random_sigma_curve(r, 0)
    A1, A2, A3, A4 = drawn.coeffs
    halves, thirds = (GaussianRational(Fraction(1, q)) for q in (2, 3))
    over_six = ACMCurve(LinearMatrix(r, mat_scale(A1, halves), A2, mat_scale(A3, thirds), A4))
    lifted = ACMCurve(LinearMatrix(r, *(mat_scale(A, 2**40) for A in drawn.coeffs)))
    return [drawn, over_six, lifted]


def generator_floats(r: int, gens: Sequence[Bivar]) -> np.ndarray:
    """(G, r+1, r+1): the coefficient of u^i v^j of each generator at [i, j]."""
    coeffs = np.zeros((len(gens), r + 1, r + 1), dtype=complex)
    for row, (g, den) in zip(coeffs, gens):
        for (i, j), (a, b) in g.items():
            # int / int is correctly rounded: the float nearest each part
            row[i, j] = complex(a / den, b / den)
    return coeffs


def reference_fiber_points(curve: ACMCurve, t: GaussianRational):
    """One slice alone, or None where it is rejected: the per-slice route
    that `fibers.fiber_points` stacks, on the `AffineFiber` echelon's
    matrices.  The same six draws (a, b), the same eigen-gap, inverse,
    off-diagonal and backward-error tests, in the same order."""
    gens = reference_generators(curve, t)
    nu, nv = (np.array(to_complex(m)) for m in AffineFiber(gens, curve.r + 2).multiplication_matrices())
    coeffs = generator_floats(curve.r, gens)
    rng = np.random.default_rng(2)
    for _ in range(6):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        try:
            vals, vecs = np.linalg.eig(a * nu + b * nv)
        except np.linalg.LinAlgError:
            return None
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
        scale = max(1.0, np.abs(du).max(), np.abs(dv).max())
        if max(np.abs(off_u).max(), np.abs(off_v).max()) > 1e-8 * scale:
            continue
        pts = np.stack([du, dv], axis=1)
        if not (backward_errors(coeffs, pts) <= 1e-8).all():
            continue
        order = np.lexsort([np.round(part(pts[:, c]), 9) for c in (1, 0) for part in (np.imag, np.real)])
        return pts[order]
    return None


# ---------------------------------------------------------------------------
# tangent sections and the quaternionic operators, exact: the reference for
# `twistor_metric.basis_arrays`, `structure_arrays` and `complex_structures`


@dataclass(frozen=True)
class TangentSection:
    """First-order move of the chart coordinates: (dA3, dA4)."""

    dA3: ExactMatrix
    dA4: ExactMatrix

    def scale(self, c: GaussianRational) -> "TangentSection":
        return TangentSection(mat_scale(self.dA3, c), mat_scale(self.dA4, c))

    def __add__(self, other: "TangentSection") -> "TangentSection":
        return TangentSection(mat_add(self.dA3, other.dA3), mat_add(self.dA4, other.dA4))


def _unit_matrix(r: int, i: int, j: int, value: GaussianRational) -> ExactMatrix:
    rows = [[ZERO] * r for _ in range(r + 1)]
    rows[i][j] = value
    return ExactMatrix(rows)


def real_tangent_basis(r: int) -> List[TangentSection]:
    """Real coordinates on the invariant chart: unit moves then their i-moves.

    Each move of A3 drags A4 along through the conjugation, so the span
    stays inside the invariant locus; the first r(r+1) entries are the
    real parts, the rest the imaginary parts, both row-major.
    """
    out = []
    for value in (ONE, I):
        for i in range(r + 1):
            for j in range(r):
                d = _unit_matrix(r, i, j, value)
                out.append(TangentSection(d, reality_conjugate(d)))
    return out


def section_I(x: TangentSection) -> TangentSection:
    return TangentSection(mat_scale(x.dA3, I), mat_scale(x.dA4, -I))


def section_J(x: TangentSection) -> TangentSection:
    return TangentSection(mat_scale(x.dA4, I), mat_scale(x.dA3, I))


def section_K(x: TangentSection) -> TangentSection:
    return section_I(section_J(x))


def section_structure_at(zeta: GaussianRational, x: TangentSection) -> TangentSection:
    """The complex structure of the fiber direction zeta, on one section."""
    n = gauss_norm(zeta)
    denom = GaussianRational(1 + n)
    c1 = GaussianRational(1 - n) / denom
    c2 = GaussianRational(2 * zeta.re) / denom
    c3 = GaussianRational(2 * zeta.im) / denom
    return (
        section_I(x).scale(c1)
        + section_J(x).scale(c2)
        + section_K(x).scale(c3)
    )


def section_arrays(sections: Sequence[TangentSection]) -> Tuple[np.ndarray, np.ndarray]:
    """Numeric dA3 and dA4 of the sections, each of shape (S, r+1, r)."""
    return tuple(np.array([to_complex(getattr(x, f)) for x in sections]) for f in ("dA3", "dA4"))


def _operator_matrix(r: int, op) -> ExactMatrix:
    """Matrix of a section operator on the real tangent basis, exact: the
    reference for `twistor_metric.complex_structures`."""
    basis = real_tangent_basis(r)
    m = r * (r + 1)
    n = 2 * m
    # coordinates of dA3 on the basis: entry (i, j) real and imaginary parts
    cols = []
    for x in basis:
        y = op(x)
        col = [ZERO] * n
        for i in range(r + 1):
            for j in range(r):
                v = y.dA3[i, j]
                col[i * r + j] = GaussianRational(v.re)
                col[m + i * r + j] = GaussianRational(v.im)
        cols.append(col)
    return ExactMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# the echelon inverse: the oracle for `ExactMatrix.inverse`


def echelon_inverse(m: ExactMatrix) -> ExactMatrix:
    """The reduced echelon form of [M | I] is [I | M^-1]: row i is
    L_i [e_i | row i of M^-1] with L_i > 0 and the row primitive, so over
    L = lcm(L_i), the lcm of the entries' denominators, row i of M^-1 is
    L / L_i times its tail.  The route `inverse` took before it packed rows;
    raises ValueError("singular matrix") where M has no inverse."""
    n, den = m.rows, m.integer_form[1]
    # D times the rows of [M | I]
    rows = [row + [(n + i, den, 0)] for i, row in enumerate(sparse_rows(m.integer_form[0]))]
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
    return ExactMatrix.from_integer_form(tuple(form), L, n)


# ---------------------------------------------------------------------------
# (a) pencil gauge invariance


def pencil_gauge_suite(count: int = 50) -> int:
    for i in range(count):
        r = 1 + i % 4
        rng = random.Random(9000 + i)
        A1, A2 = random_injective_pencil(r, 1000 + i)
        G = random_invertible(r + 1, rng)
        H = random_invertible(r, rng)
        B1, B2 = G @ A1 @ H, G @ A2 @ H
        red = kronecker_reduce(B1, B2)
        assert apply_gauge(B1, B2, red.P, red.Q) == canonical_pair(r)
        assert pair_stabilizer_dimension(B1, B2) == 1
        assert pair_stabilizer_dimension(A1, A2) == 1
    return count


# ---------------------------------------------------------------------------
# (b) gauge invariance of curve invariants


def curve_gauge_suite(count: int = 50) -> int:
    for i in range(count):
        r = 1 + i % 3
        rng = random.Random(17000 + i)
        curve = random_real_curve(r, seed=300 + i)
        G = random_invertible(r + 1, rng)
        H = random_invertible(r, rng)
        gauged = ACMCurve(curve.matrix.gauge(G, H))
        assert gauged.degree == curve.degree
        assert gauged.genus == curve.genus
        for k in (r, r + 2):
            assert gauged.ideal.dimension(k) == curve.ideal.dimension(k)
    return count


# ---------------------------------------------------------------------------
# (c) equivariance of fibers under the antiholomorphic involution


def antipodal_parameter(t: GaussianRational) -> GaussianRational:
    return ZERO - ONE / t.conj()


QBivar = Dict[Tuple[int, int], GaussianRational]


def rational_generator(g: Bivar) -> QBivar:
    """The Q(i) coefficients of a slice generator: its numerators over its denominator."""
    terms, den = g
    return {m: GaussianRational(Fraction(a, den), Fraction(b, den)) for m, (a, b) in terms.items()}


def antipodal_generator(g: QBivar, t: GaussianRational) -> QBivar:
    """Vanishing locus transport: (u, v) on the t slice maps to
    (conj(v)/conj(t), -conj(u)/conj(t)) on the -1/conj(t) slice, so the
    (a, b) coefficient c lands on (b, a) as conj(c) (-1)^a conj(t)^(a+b)."""
    tb = t.conj()
    out: QBivar = {}
    for (a, b), c in g.items():
        val = c.conj()
        if a % 2:
            val = ZERO - val
        for _ in range(a + b):
            val = val * tb
        key = (b, a)
        out[key] = out.get(key, ZERO) + val
    return {k: v for k, v in out.items() if not v.is_zero()}


def fiber_contains(fiber: AffineFiber, g: QBivar) -> bool:
    # g lies in the span exactly when appending its row adds no pivot
    row = integer_row(sorted((fiber.col_index[m], v) for m, v in g.items()))
    return len(sparse_echelon(fiber.echelon + [row])) == len(fiber.echelon)


def fiber_equivariance_suite(pool: Dict[int, List[ACMCurve]], count: int = 50) -> int:
    for i in range(count):
        r = 2 + i % 2
        curve = pool[r][i % len(pool[r])]
        rng = random.Random(23000 + i)
        t = random_gauss(rng)
        while t.is_zero():
            t = random_gauss(rng)
        tp = antipodal_parameter(t)
        assert antipodal_parameter(tp) == t
        gens_t = fiber_generators(curve, t)
        gens_tp = fiber_generators(curve, tp)
        fib_t = AffineFiber(gens_t, curve.r + 2)
        fib_tp = AffineFiber(gens_tp, curve.r + 2)
        assert fib_t.profile() == fib_tp.profile()
        for g in gens_t:
            assert fiber_contains(fib_tp, antipodal_generator(rational_generator(g), t))
        for g in gens_tp:
            assert fiber_contains(fib_t, antipodal_generator(rational_generator(g), tp))
    return count


# ---------------------------------------------------------------------------
# (d) functoriality of graded multiplication matrices


def graded_matrix(phi: list, source_degree: int, num_vars: int) -> ExactMatrix:
    """Matrix of v -> phi @ v on degree-source_degree polynomial vectors, a
    reference for the tests.  phi is a list of rows of forms of one degree
    e, the target degree is source_degree + e, and coordinates are
    component-major: index = component * n_monomials + monomial."""
    smonos = monomial_basis(num_vars, source_degree)
    tindex = monomial_index(num_vars, source_degree + phi[0][0].degree)
    n_s, n_t = len(smonos), len(tindex)
    cols = len(phi[0]) * n_s
    mat = [[ZERO] * cols for _ in range(len(phi) * n_t)]
    for i, row in enumerate(phi):
        for j, entry in enumerate(row):
            for s_idx, s_mono in enumerate(smonos):
                for mono, c in entry.coeffs.items():
                    t = i * n_t + tindex[tuple(a + b for a, b in zip(mono, s_mono))]
                    mat[t][j * n_s + s_idx] += c
    return ExactMatrix(mat, cols=cols)


def random_homog(rng: random.Random, degree: int) -> HomogPoly:
    while True:
        coeffs = {
            m: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            for m in monomial_basis(4, degree)
            if rng.random() < 0.6
        }
        coeffs = {m: c for m, c in coeffs.items() if not c.is_zero()}
        if coeffs:
            return form(4, degree, coeffs)


def graded_functoriality_suite(count: int = 50) -> int:
    for i in range(count):
        rng = random.Random(31000 + i)
        k = i % 2
        if i % 2 == 0:
            df, dg = 1 + i % 2, 1 + (i // 2) % 2
            f = random_homog(rng, df)
            g = random_homog(rng, dg)
            lhs = graded_matrix([[f * g]], k, 4)
            rhs = (
                graded_matrix([[f]], k + dg, 4)
                @ graded_matrix([[g]], k, 4)
            )
        else:
            phi = [[random_homog(rng, 1) for _ in range(2)] for _ in range(2)]
            psi = [[random_homog(rng, 1) for _ in range(2)] for _ in range(2)]
            prod = [
                [
                    poly_add(phi[a][0] * psi[0][b], phi[a][1] * psi[1][b])
                    for b in range(2)
                ]
                for a in range(2)
            ]
            lhs = graded_matrix(prod, k, 4)
            rhs = (
                graded_matrix(phi, k + 1, 4) @ graded_matrix(psi, k, 4)
            )
        assert lhs == rhs
    return count


# ---------------------------------------------------------------------------
# (e) trace identities of slice multiplication operators


def _trace(m: ExactMatrix) -> complex:
    acc = ZERO
    for i in range(m.rows):
        acc = acc + m[i, i]
    return complex(acc)


def fiber_trace_suite(pool: Dict[int, List[ACMCurve]], count: int = 50) -> int:
    done = 0
    i = 0
    while done < count:
        r = 2 + i % 2
        curve = pool[r][i % len(pool[r])]
        rng = random.Random(47000 + i)
        t = random_gauss(rng)
        i += 1
        pts = fiber_points(curve, [t])[0]
        if pts is None:
            continue
        mu, mv = fiber_multiplication_matrices(curve, t)
        assert mu @ mv == mv @ mu
        scale = max(1.0, float(abs(pts).max()))
        assert abs(_trace(mu) - pts[:, 0].sum()) < 1e-6 * scale
        assert abs(_trace(mv) - pts[:, 1].sum()) < 1e-6 * scale
        assert abs(_trace(mu @ mv) - (pts[:, 0] * pts[:, 1]).sum()) < 1e-6 * scale**2
        done += 1
    return done
