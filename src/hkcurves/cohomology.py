"""Sheaf cohomology from the length-one resolution by free modules.

Every group here is computed from the certified resolution of the curve
ideal: twisting the resolution and taking the long exact sequence leaves
only kernels and cokernels of explicit multiplication maps between free
pieces, all of which reduce to exact ranks of monomial matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .exact_algebra.ideals import Row, sparse_row_rank
from .exact_algebra.modp import ranks_mod, sparse_rank_certificate
from .exact_algebra.polys import HomogPoly, graded_matrix, monomial_basis, monomial_count
from .exact_algebra.scalars import GaussianRational

Table = Tuple[int, int, int, int]

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def line_bundle_cohomology_P3(m: int) -> Table:
    """(h^0, h^1, h^2, h^3) of the degree-m line bundle on projective 3-space."""
    return (monomial_count(4, m), 0, 0, monomial_count(4, -m - 4))


def chi_line_bundle(m: int) -> int:
    """Euler characteristic (m+1)(m+2)(m+3)/6, all integers m."""
    return (m + 1) * (m + 2) * (m + 3) // 6


def _syzygy_dual_rank(curve, k: int) -> int:
    """Rank of the transposed syzygy matrix acting on degree r-k-4 vectors."""
    r = curve.r
    source_degree = r - k - 4
    if source_degree < 0:
        return 0
    phi_t = [[curve.entries[i][j] for i in range(r + 1)] for j in range(r)]
    return graded_matrix(phi_t, source_degree, 4).matrix.rank()


def ideal_cohomology(curve, k: int) -> Table:
    """(h^0, h^1, h^2, h^3) of the twisted ideal sheaf of a certified curve.

    h^0 comes from global sections of the resolution, h^1 vanishes since
    the middle terms have none in degrees 1 and 2, and the top groups are
    the kernel and cokernel of the connecting multiplication map, read off
    one exact rank by duality.
    """
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; cohomology needs it")
    r = curve.r
    h0 = (r + 1) * monomial_count(4, k - r) - r * monomial_count(4, k - r - 1)
    rho = _syzygy_dual_rank(curve, k)
    h2 = r * monomial_count(4, r - k - 3) - rho
    h3 = (r + 1) * monomial_count(4, r - k - 4) - rho
    chi = (r + 1) * chi_line_bundle(k - r) - r * chi_line_bundle(k - r - 1)
    if h0 + h2 - h3 != chi:
        raise ArithmeticError(f"Euler characteristic mismatch at twist {k}")
    return (h0, 0, h2, h3)


@dataclass(frozen=True)
class CohomologyTable:
    kmin: int
    kmax: int
    rows: Tuple[Table, ...]

    def row(self, k: int) -> Table:
        if not self.kmin <= k <= self.kmax:
            raise KeyError(f"twist {k} outside [{self.kmin}, {self.kmax}]")
        return self.rows[k - self.kmin]


def cohomology_table(curve, kmin: int, kmax: int) -> CohomologyTable:
    if kmin > kmax:
        raise ValueError("empty twist range")
    rows = tuple(ideal_cohomology(curve, k) for k in range(kmin, kmax + 1))
    return CohomologyTable(kmin=kmin, kmax=kmax, rows=rows)


def ellia_stability_check(curve) -> bool:
    """True when the ideal sheaf has no cohomology in twists r-2 and r-1.

    The double vanishing is the stability criterion for the rank-two
    bundle attached to the curve by the standard extension construction.
    """
    zero: Table = (0, 0, 0, 0)
    r = curve.r
    return (
        ideal_cohomology(curve, r - 1) == zero
        and ideal_cohomology(curve, r - 2) == zero
    )


def _poly_det(mat: List[List[HomogPoly]]) -> HomogPoly:
    """Determinant by first-row expansion; empty matrix gives the unit."""
    n = len(mat)
    if n == 0:
        return HomogPoly(4, 0, {(0, 0, 0, 0): _ONE})
    if n == 1:
        return mat[0][0]
    acc = None
    for j in range(n):
        sub = [[row[b] for b in range(n) if b != j] for row in mat[1:]]
        term = mat[0][j] * _poly_det(sub)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _deformation_vectors(curve, twist: int, src_cols: List[int]) -> List[Row]:
    """Kernel vectors from first-order deformations of the matrix.

    Perturbing entry (i0, j0) by a form f moves minor_i by
    (-1)^(i+pos+j0) * f * det(matrix without rows i, i0 and column j0);
    differentiating the cofactor identity shows the resulting vector of
    normal forms is killed by every column of the matrix mod the ideal.
    Degree-(1+twist) perturbations give degree-(r+twist) vectors.
    """
    r = curve.r
    if twist == 0:
        forms = [HomogPoly.variable(4, v) for v in range(4)]
    else:
        forms = [HomogPoly(4, 0, {(0, 0, 0, 0): _ONE})]
    src_pos = {c: pos for pos, c in enumerate(src_cols)}
    n_src = len(src_cols)
    index_src = {m: c for c, m in enumerate(monomial_basis(4, r + twist))}
    vectors: List[Row] = []
    zero_r = HomogPoly(4, r, {})
    for i0 in range(r + 1):
        for j0 in range(r):
            cof: Dict[int, HomogPoly] = {}
            for i in range(r + 1):
                if i == i0:
                    continue
                rows = [curve.entries[a] for a in range(r + 1) if a not in (i, i0)]
                sub = [[row[b] for b in range(r) if b != j0] for row in rows]
                pos = i0 - (1 if i0 > i else 0)
                d = _poly_det(sub)
                cof[i] = d if (i + pos + j0) % 2 == 0 else -d
            # exact check of the differentiated identity, once per position;
            # kernel membership for every perturbing form follows linearly
            for j in range(r):
                acc = zero_r
                for i, d in cof.items():
                    acc = acc + d * curve.entries[i][j]
                want = -curve.minors[i0] if j == j0 else zero_r
                if acc != want:
                    raise ArithmeticError("cofactor derivative identity failed")
            for f in forms:
                coords: Dict[int, GaussianRational] = {}
                for i, d in cof.items():
                    nf = curve.ideal.normal_form(f * d)
                    for c, v in nf.items():
                        col = i * n_src + src_pos[c]
                        coords[col] = coords.get(col, _ZERO) + v
                vec = sorted((c, v) for c, v in coords.items() if not v.is_zero())
                if vec:
                    vectors.append(vec)
    return vectors


def normal_sections(curve, twist: int) -> int:
    """Dimension of degree-(r+twist) section vectors killed by the matrix.

    Sections of the normal sheaf twisted by `twist` are vectors
    (n_0, ..., n_r) of forms of degree r + twist on the curve with
    sum_i entries[i][j] * n_i = 0 in the coordinate ring for every j.
    The kernel dimension is pinned by a sandwich.  Deformation vectors,
    verified in the kernel exactly, bound it below through their rank mod
    the first usable prime (0 if none is usable):

        lower <= rank(candidates) <= dim ker = ncols - rank(rows).

    So rank(rows) <= ncols - lower, and a modular rank of the map that
    meets ncols - lower certifies dim ker = lower.  Exact elimination only
    runs when no prime does.
    """
    if twist not in (0, -1):
        raise ValueError("twist must be 0 or -1")
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; section count needs it")
    r = curve.r
    m_src = r + twist
    m_tgt = m_src + 1
    src_basis = monomial_basis(4, m_src)
    src_cols = curve.ideal.quotient_basis(m_src)
    tgt_cols = curve.ideal.quotient_basis(m_tgt)
    tgt_pos = {c: pos for pos, c in enumerate(tgt_cols)}
    n_src = len(src_cols)
    n_tgt = len(tgt_cols)
    ncols = (r + 1) * n_src
    # rows indexed by (j, target monomial), columns by (i, source monomial)
    rows_acc: List[Dict[int, GaussianRational]] = [dict() for _ in range(r * n_tgt)]
    for i in range(r + 1):
        for s_pos, s_col in enumerate(src_cols):
            col = i * n_src + s_pos
            s_mono = src_basis[s_col]
            for j in range(r):
                nf = curve.ideal.normal_form(curve.entries[i][j].mul_monomial(s_mono))
                for c, v in nf.items():
                    row = j * n_tgt + tgt_pos[c]
                    acc = rows_acc[row]
                    acc[col] = acc.get(col, _ZERO) + v
    rows = [sorted(acc.items()) for acc in rows_acc if acc]

    lower = next(ranks_mod(_deformation_vectors(curve, twist, src_cols), ncols), 0)
    if sparse_rank_certificate(rows, ncols, ncols - lower):
        return lower
    return ncols - sparse_row_rank(rows)


@dataclass(frozen=True)
class NormalSheafReport:
    r: int
    sections: int           # h^0 of the normal sheaf
    sections_minus_1: int   # h^0 after twisting down once
    expected: int
    expected_minus_1: int
    ok: bool


def normal_sheaf_report(curve) -> NormalSheafReport:
    """Section counts of the normal sheaf against the smoothness targets.

    A smooth point of the parameter space contributes 2r(r+1) sections,
    half of that after one negative twist.
    """
    r = curve.r
    h0 = normal_sections(curve, 0)
    h0m = normal_sections(curve, -1)
    e0 = 2 * r * (r + 1)
    e1 = r * (r + 1)
    return NormalSheafReport(
        r=r,
        sections=h0,
        sections_minus_1=h0m,
        expected=e0,
        expected_minus_1=e1,
        ok=(h0 == e0 and h0m == e1),
    )
