"""Sheaf cohomology and normal sections from the length-one resolution.

Every number here is read from the certified resolution of the curve
ideal, 0 -> S(-r-1)^r -> S(-r)^(r+1) -> I -> 0.  The certificate, a
dimension match certified at 2r-1, proves the resolution and its dual
exact, so the ideal-sheaf groups and the normal-section counts are closed
form in the Hilbert function of I, and nothing here takes a rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .acm_curve import predicted_ideal_dimension
# not called here: perfbench/tracer.py patches this name to count exact
# fallbacks of the section counts
from .exact_algebra.ideals import sparse_row_rank
from .exact_algebra.polys import monomial_count

Table = Tuple[int, int, int, int]


def chi_line_bundle(m: int) -> int:
    """Euler characteristic (m+1)(m+2)(m+3)/6, all integers m."""
    return (m + 1) * (m + 2) * (m + 3) // 6


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
    h0 = predicted_ideal_dimension(r, k)
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


def normal_sections(curve, twist: int) -> int:
    """h^0 of the normal sheaf twisted by `twist` (0 or -1), in closed form.

    The sections are vectors (n_0, ..., n_r) of forms of degree r + twist
    on the curve with sum_i entries[i][j] * n_i = 0 in S/I for every j:
    the images of the minors under a map I -> S/I of degree `twist`.  So
    the count is dim Hom_S(I, S/I)_twist, since Hom(-, S/I) is left exact
    on the resolution F2 -> F1 -> I -> 0, F1 = S(-r)^(r+1), F2 = S(-r-1)^r.

    The certificate proves the resolution exact, so the minors have grade
    2 (`certify_resolution`), and then Hom(I, S) = Hom(I, I) = S.  In the
    long exact sequence of Hom(I, -) on 0 -> I -> S -> S/I -> 0,

        0 -> Hom(I, I) -> Hom(I, S) -> Hom(I, S/I) -> Ext^1(I, I) -> Ext^1(I, S),

    the first map is the identity of S, and the last has image
    I * Ext^1(I, S), which is 0: Ext^1(I, S) = Ext^2(S/I, S) is killed by
    I.  So Hom(I, S/I) = Ext^1(I, I), the cokernel of
    Hom(F1, I) -> Hom(F2, I), whose kernel is Hom(I, I) = S.  In degree t,
    with dim I_k = `predicted_ideal_dimension(r, k)` on a certified curve,

        h^0(N(t)) = r dim I_(r+1+t) - (r+1) dim I_(r+t) + dim S_t,

    which is 2r(r+1) at t = 0 and r(r+1) at t = -1.  No level is built or
    ranked.
    """
    if twist not in (0, -1):
        raise ValueError("twist must be 0 or -1")
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; section count needs it")
    r = curve.r
    return (
        r * predicted_ideal_dimension(r, r + 1 + twist)
        - (r + 1) * predicted_ideal_dimension(r, r + twist)
        + monomial_count(4, twist)
    )


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
