"""Sheaf cohomology from the length-one resolution by free modules.

Every group here is computed from the certified resolution of the curve
ideal: twisting the resolution and taking the long exact sequence leaves
only kernels and cokernels of explicit multiplication maps between free
pieces.  The certificate, a dimension match certified at 2r-1, proves the
resolution and its dual exact, so the ideal-sheaf groups are closed form;
only the normal-section counts take ranks, decided mod p with exact
elimination as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Tuple

import numpy as np

from .exact_algebra import modp
from .exact_algebra.ideals import Row, integer_row, sparse_row_rank
from .exact_algebra.modp import matmul_mod, rank_mod
from .exact_algebra.polys import FormMod, entry_cofactors, monomial_basis, monomial_count, shift_index
from .exact_algebra.scalars import GaussianRational

Table = Tuple[int, int, int, int]

_ZERO = GaussianRational(0)


def line_bundle_cohomology_P3(m: int) -> Table:
    """(h^0, h^1, h^2, h^3) of the degree-m line bundle on projective 3-space."""
    return (monomial_count(4, m), 0, 0, monomial_count(4, -m - 4))


def chi_line_bundle(m: int) -> int:
    """Euler characteristic (m+1)(m+2)(m+3)/6, all integers m."""
    return (m + 1) * (m + 2) * (m + 3) // 6


def _coeffs_mod(curve, p: int, s: int) -> np.ndarray:
    """[i, j, v]: the coefficient of x_v in entries[i][j], reduced mod p
    (x_v = monomial_basis(4, 1)[v]).  The numerators over one common
    denominator D are reduced, then multiplied by D^-1 mod p, so the values
    are exact; a prime that divides D raises BadPrime."""
    r = curve.r
    values = [A[i, j] for i in range(r + 1) for j in range(r) for A in curve.coeffs]
    den = lcm(*(q.denominator for z in values for q in (z.re, z.im)))
    if den % p == 0:
        raise modp.BadPrime(f"denominator {den} divisible by {p}")
    numerators = modp.rows_mod([integer_row(enumerate(values))], len(values), p, s)
    return (numerators * pow(den, p - 2, p) % p).reshape(r + 1, r, 4)


def ideal_cohomology(curve, k: int) -> Table:
    """(h^0, h^1, h^2, h^3) of the twisted ideal sheaf of a certified curve.

    h^0 comes from global sections of the resolution, h^1 vanishes since
    the middle terms have none in degrees 1 and 2, and the top groups are
    the kernel and cokernel of the connecting multiplication map, read off
    by duality from rho, the rank of the transposed matrix phi^T on vectors
    of degree r-k-4 forms.

    rho is closed form.  A curve certified at 2r-1 has minors with no common
    factor (`certify_resolution`: a factor of degree e >= 1 makes dim I_k
    fall short from k = 2r-e on, since a Koszul relation of degree 2r-e is
    not a syzygy from phi and the shortfall never decreases), so by the
    Buchsbaum-Eisenbud criterion the dual complex
    0 -> S -> S(r)^(r+1) -> S(r+1)^r is exact: ker phi^T is exactly
    minors * S, and rho = (r+1) C(r-k-4) - C(-k-4), with C(n) the number of
    degree-n monomials in 4 variables (0 for n < 0).  No rank is computed.
    """
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; cohomology needs it")
    r = curve.r
    h0 = (r + 1) * monomial_count(4, k - r) - r * monomial_count(4, k - r - 1)
    rho = (r + 1) * monomial_count(4, r - k - 4) - monomial_count(4, -k - 4)
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


def _exact_map_rows(curve, src_cols: List[int], tgt_cols: List[int], m_src: int) -> List[Row]:
    """Rows (j, target column) of the pairing map, columns (i, source column),
    each cleared of its denominators."""
    r = curve.r
    src_basis = monomial_basis(4, m_src)
    tgt_pos = {c: pos for pos, c in enumerate(tgt_cols)}
    n_src, n_tgt = len(src_cols), len(tgt_cols)
    rows_acc: List[Dict[int, GaussianRational]] = [dict() for _ in range(r * n_tgt)]
    for i in range(r + 1):
        for s_pos, s_col in enumerate(src_cols):
            col = i * n_src + s_pos
            s_mono = src_basis[s_col]
            for j in range(r):
                nf = curve.ideal.normal_form(curve.entries[i][j].mul_monomial(s_mono))
                for c, v in nf.items():
                    acc = rows_acc[j * n_tgt + tgt_pos[c]]
                    acc[col] = acc.get(col, _ZERO) + v
    return [integer_row(sorted(acc.items())) for acc in rows_acc if acc]


def _cofactors_mod(curve, p: int, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """(`_coeffs_mod`, the entry cofactors mod p as rows (i0, j0, i) over
    the degree r-1 monomials): one Laplace pass on the reduced entries."""
    r = curve.r
    coeffs = _coeffs_mod(curve, p, s)
    entries = [[FormMod(4, 1, coeffs[i, j], p) for j in range(r)] for i in range(r + 1)]
    cofactors = entry_cofactors(entries)
    return coeffs, np.array([d.vec for per_column in cofactors for cofs in per_column for d in cofs])


def _memo(memo: dict, key, build):
    """memo[key], built by build() on first use."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
    return value


def normal_sections(curve, twist: int, memo: Dict | None = None) -> int:
    """Dimension of degree-(r+twist) section vectors killed by the matrix.

    Sections of the normal sheaf twisted by `twist` are vectors
    (n_0, ..., n_r) of forms of degree r + twist on the curve with
    sum_i entries[i][j] * n_i = 0 in the coordinate ring for every j:
    the kernel of a map with ncols = (r+1) * dim (R/I)_(r+twist) columns.

    Deformation vectors (f * d[i0][j0][i])_i, with d = `entry_cofactors`
    and f a form of degree 1+twist, lie in the kernel for every matrix:
    their pairing with column j is -f * minor_i0 * delta(j, j0), in I.

    Both sides are built mod p from the start.  The coefficients are
    reduced once (`_coeffs_mod`; a bad denominator skips the prime), the
    cofactors are the same Laplace pass on the reduced linear forms
    (reduction mod p is a ring homomorphism, so it commutes with
    determinants), and the normal-form tables of degrees r+twist and
    r+twist+1 are `GradedIdeal.reduction_table_mod`.  That table is built
    only where the level's rank mod p equals the certified dim I_k; then
    the complement of its pivots J_p is a quotient basis over Q(i), since a
    minor that is nonzero mod p is nonzero, and the exact normal forms on
    that basis reduce to the table.  The counts are ranks of maps between
    the quotients, so they do not depend on the basis: the reduced matrices
    are reductions of exact matrices with the same ranks, and rank mod p
    never exceeds the exact rank.  With lower_p the rank of the reduced
    deformation vectors and rank_p that of the reduced map,

        lower_p <= dim ker = ncols - rank,    rank_p <= rank,

    so rank_p <= ncols - lower_p.  Equality pins dim ker = lower_p; a larger
    rank_p disproves the sandwich and raises ArithmeticError.  Only when no
    prime pins the count do the exact quotient bases and normal forms get
    built, and the map is eliminated exactly.

    `memo`, a dict the caller owns, shares the per-prime parts between calls
    on one curve: the reduced coefficients and cofactors, and the tables by
    degree.  `normal_sheaf_report` passes one to both twists, which read the
    same degree r-1 cofactors and the same degree-r table.
    """
    if twist not in (0, -1):
        raise ValueError("twist must be 0 or -1")
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; section count needs it")
    r = curve.r
    m_src = r + twist
    m_tgt = m_src + 1
    src_basis = monomial_basis(4, m_src)
    units = monomial_basis(4, 1)
    # f * d runs over the shifts of d's monomials by f's exponent
    forms = units if twist == 0 else monomial_basis(4, 0)
    cof_shift = shift_index(monomial_basis(4, r - 1), forms, m_src)

    memo = {} if memo is None else memo
    ideal = curve.ideal

    def sandwich(p: int, s: int) -> Tuple[int, int, int]:
        coeffs, cof = _memo(memo, ("cofactors", p), lambda: _cofactors_mod(curve, p, s))
        src_cols, nf_src = _memo(memo, ("table", m_src, p), lambda: ideal.reduction_table_mod(m_src, p, s))
        tgt_cols, nf_tgt = _memo(memo, ("table", m_tgt, p), lambda: ideal.reduction_table_mod(m_tgt, p, s))
        n_src, n_tgt = len(src_cols), len(tgt_cols)
        ncols = (r + 1) * n_src
        # the map's block (j, i) sums coeff_v(entries[i][j]) * NF[s + e_v]
        map_shift = shift_index([src_basis[c] for c in src_cols], units, m_tgt)
        # [i, j, s, t] -> rows (j, t), columns (i, s)
        shifted = nf_tgt[map_shift].reshape(4, n_src * n_tgt)
        rows = matmul_mod(coeffs.reshape(-1, 4), shifted, p).reshape(r + 1, r, n_src, n_tgt)
        rows = rows.transpose(1, 3, 0, 2).reshape(r * n_tgt, ncols)
        # [i0, j0, i, f, s] -> rows (i0, j0, f), columns (i, s)
        shifted = nf_src[cof_shift].transpose(1, 0, 2).reshape(-1, len(forms) * n_src)
        vectors = matmul_mod(cof, shifted, p).reshape(r + 1, r, r + 1, len(forms), n_src)
        vectors = vectors.transpose(0, 1, 3, 2, 4).reshape(-1, ncols)
        lower = rank_mod(vectors, p)
        bound = ncols - lower
        return lower, bound, rank_mod(rows, p, bound + 1)

    for _, (lower, bound, rank) in modp.each_prime(sandwich):
        if rank > bound:
            raise ArithmeticError(f"rank {rank} mod p exceeds certified bound {bound}")
        if rank == bound:
            return lower
    src_cols = curve.ideal.quotient_basis(m_src)
    tgt_cols = curve.ideal.quotient_basis(m_tgt)
    return (r + 1) * len(src_cols) - sparse_row_rank(_exact_map_rows(curve, src_cols, tgt_cols, m_src))


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
    memo: dict = {}
    h0 = normal_sections(curve, 0, memo)
    h0m = normal_sections(curve, -1, memo)
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
