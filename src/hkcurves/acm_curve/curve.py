"""Curve construction, invariants, and the resolution certificate."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ..exact_algebra.ideals import GradedIdeal
from ..exact_algebra.linalg import ExactMatrix
from ..exact_algebra.polys import column_combinations, form_pairs, monomial_count, signed_minors
from ..exact_algebra.scalars import DRAW_SPAN, MAX_DRAWS, first_draw, random_gaussian_pairs
from ..pencil import canonical_pair, minor_coefficient_rank
from ..reality import make_sigma_invariant_pencil, reality_conjugate

CoeffTuple = Tuple[ExactMatrix, ExactMatrix, ExactMatrix, ExactMatrix]


def curve_degree(r: int) -> int:
    return r * (r + 1) // 2


def curve_genus(r: int) -> int:
    return (r - 1) * (r - 2) * (2 * r + 3) // 6


def invariants(r: int) -> Tuple[int, int]:
    """(degree, genus) of the rank-drop curve of an (r+1) x r linear matrix."""
    if r < 1:
        raise ValueError("need r >= 1")
    return curve_degree(r), curve_genus(r)


def predicted_ideal_dimension(r: int, k: int) -> int:
    """dim I_k forced by the length-one resolution by free modules."""
    if k < r:
        return 0
    return (r + 1) * monomial_count(4, k - r) - r * monomial_count(4, k - r - 1)


@dataclass(frozen=True)
class LinearMatrix:
    """Coefficient tuple of the (r+1) x r matrix of linear forms Sum Ai*xi."""

    r: int
    A1: ExactMatrix
    A2: ExactMatrix
    A3: ExactMatrix
    A4: ExactMatrix

    def __post_init__(self):
        shapes = {m.shape for m in self.coeffs}
        if shapes != {(self.r + 1, self.r)} or self.r < 1:
            raise ValueError(f"expected (r+1) x r coefficient matrices, got {shapes}")

    @property
    def coeffs(self) -> CoeffTuple:
        return (self.A1, self.A2, self.A3, self.A4)

    def gauge(self, P: ExactMatrix, Q: ExactMatrix) -> "LinearMatrix":
        return LinearMatrix(self.r, *(P @ A @ Q for A in self.coeffs))

    def numeric(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # int / int is correctly rounded, so these are the floats of complex(entry)
        forms = (A.integer_form for A in self.coeffs)
        return tuple(np.array([[complex(a / d, b / d) for a, b in row] for row in rows]) for rows, d in forms)


class ACMCurve:
    """Curve data: linear matrix, minor generators, graded ideal."""

    def __init__(self, matrix):
        if not isinstance(matrix, LinearMatrix):
            coeffs = tuple(matrix)
            matrix = LinearMatrix(coeffs[0].cols, *coeffs)
        self.matrix = matrix
        self.r = r = matrix.r
        self.coeffs = matrix.coeffs
        self.degree, self.genus = invariants(r)
        # the matrix as the Laplace kernel reads it, for the minors and the
        # cofactor check
        self.pairs = form_pairs([A.integer_form for A in self.coeffs])
        self.minors = signed_minors(*self.pairs)
        if all(m.is_zero() for m in self.minors):
            raise ValueError("all maximal minors vanish identically")
        self.ideal = GradedIdeal([m for m in self.minors if not m.is_zero()])
        # T, the minors on L0 = {x2 = x3 = 0}: row k holds minor k's numerators of x0^(r-j) x1^j
        self.base_line = [[m.terms.get((r - j, j, 0, 0), (0, 0)) for j in range(r + 1)]
                          for m in self.minors]
        self._certificate: Optional["ResolutionCertificate"] = None

    @classmethod
    def from_real_pair(cls, A3: ExactMatrix) -> "ACMCurve":
        """Canonical-gauge curve with the reality constraint built in."""
        r = A3.cols
        S, T = canonical_pair(r)
        return cls(LinearMatrix(r, S, T, A3, reality_conjugate(A3)))

    def certificate(self) -> "ResolutionCertificate":
        if self._certificate is None:
            self._certificate = certify_resolution(self)
        return self._certificate

    @cached_property
    def base_line_rank(self) -> int:
        """Rank of T, certified; r + 1 exactly when the curve misses L0."""
        return minor_coefficient_rank(self.base_line)

    @cached_property
    def base_line_inverse(self) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], int]:
        """(A, L) with T^-1 = A / L for invertible T: the integer form of
        the inverse, Gaussian-integer pairs over one positive common
        denominator."""
        T = ExactMatrix.from_integer_form(tuple(map(tuple, self.base_line)), 1, self.r + 1)
        return T.inverse().integer_form

    @cached_property
    def slice_tables(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """(gens, gens_den, mats, mats_den): the slices over x3 = t x2 as
        polynomials in t.  Each table is an object array of Gaussian-integer
        coefficients, (re, im) first and the coefficient of t^e, e <= r,
        last; its denominators broadcast against the axes between.
        - gens (2, r+1, r+1, r+1, r+1): minor k on x2 = 1, x3 = t, its
          numerator of u^i v^j at [:, k, i, j], over minor k's denominator;
        - mats (2, 2, d, d, r+1), None for a curve that meets L0: the u and v
          matrices on the basis u^a v^b, a + b <= r - 1, highest degree
          first, over L with T^-1 = A / L.  u^a v^b times u or v is a basis
          monomial or u^(r-j) v^j, whose normal form is -sum_k A[j][k] times
          minor k below degree r, over L: the degree-r part of minor k on
          x2 = 1 is row k of T (a border basis, see `fibers`)."""
        r = self.r
        gens = np.zeros((2, r + 1, r + 1, r + 1, r + 1), dtype=object)
        for k, minor in enumerate(self.minors):
            for (i, j, _, e), ab in minor.terms.items():
                gens[:, k, i, j, e] = ab
        gens_den = np.array([m.den for m in self.minors], dtype=object).reshape(-1, 1, 1)
        if self.base_line_rank < r + 1:
            return gens, gens_den, None, None
        inverse, scale = self.base_line_inverse
        a_re, a_im = np.moveaxis(np.array(inverse, dtype=object), -1, 0)
        basis = sorted(((a, b) for a in range(r) for b in range(r - a)), key=lambda m: (-sum(m), -m[0]))
        d = len(basis)
        low_re, low_im = gens[:, :, [a for a, _ in basis], [b for _, b in basis]].reshape(2, r + 1, -1)
        forms = np.stack([a_im @ low_im - a_re @ low_re, -(a_re @ low_im + a_im @ low_re)])
        forms = forms.reshape(2, r + 1, d, r + 1)
        mats = np.zeros((2, 2, d, d, r + 1), dtype=object)
        for side, (du, dv) in enumerate(((1, 0), (0, 1))):
            for col, (a, b) in enumerate(basis):
                if a + b == r - 1:
                    mats[:, side, :, col] = forms[:, b + dv]
                else:
                    mats[0, side, basis.index((a + du, b + dv)), col, 0] = scale
        return gens, gens_den, mats, np.full((1, 1, 1), scale, dtype=object)


@dataclass(frozen=True)
class ResolutionCertificate:
    ok: bool
    cofactor_identity: bool      # minors compose to zero against the matrix
    syzygy_injective: bool       # some maximal minor is a nonzero form
    # dim I_k for k = 0 .. 2r+2; when T is invertible or dim I_(2r-1) matches,
    # all are the expected values, which that proves, and no level is built
    dimensions: Tuple[int, ...]
    expected: Tuple[int, ...]
    mismatches: Tuple[Tuple[int, int, int], ...]  # (k, actual, predicted)


def certify_resolution(curve: ACMCurve) -> ResolutionCertificate:
    """Exact certificate that the minors resolve with the matrix as syzygies.

    The cofactor identities make 0 -> F2 = S(-r-1)^r -> F1 = S(-r)^(r+1) -> S,
    by the matrix phi and then the row m of minors, a complex; a nonzero
    maximal minor makes phi injective.  So delta_k = expected - dim I_k is
    dim M_k for M = ker m / im phi.  By the Buchsbaum-Eisenbud criterion
    ("What makes a complex exact?", 1973) the complex and its dual are exact,
    and delta = 0, once the minors have no common factor (grade >= 2, which
    in a UFD is height >= 2).

    delta_k <= delta_(k+1): M lies in coker phi, whose resolution 0 -> F2 ->
    F1 gives pd <= 1, so depth >= 3 by Auslander-Buchsbaum (Eisenbud,
    Commutative Algebra, Thm 19.9); the associated primes P of M then have
    dim S/P >= 3, so a linear form avoids them all and maps M_k into
    M_(k+1) injectively.  A common factor f of degree e >= 1 makes
    delta_(2r-e) > 0: at a prime factor of f, the gcd, some g_i0 = m_i0 / f
    is a unit and the Koszul relations g_j e_i0 - g_i0 e_j span ker m;
    writing phi = B*C over them makes det C = +-f / g_i0^(r-1) a non-unit,
    so a Koszul relation of degree 2r-e <= 2r-1 is not in im phi.

    First the base line: if T is invertible, the curve misses L0 (no common
    zero there), a common factor would vanish on a surface, which meets
    every line, so the minors have none, and no level is ranked.  Else
    level 2r-1 alone is: a match rules a common factor out and proves every
    dim.  Either way the window k = 0 .. 2r+2 is recorded on the curve's
    ideal.  A mismatch sweeps it, so a failing report lists every mismatch.
    """
    r = curve.r
    cofactor = all(s.is_zero() for s in column_combinations(curve.minors, *curve.pairs))
    injective = any(not m.is_zero() for m in curve.minors)
    bounded = cofactor and injective
    window = range(0, 2 * r + 3)
    expected = tuple(predicted_ideal_dimension(r, k) for k in window)
    ideal, top = curve.ideal, 2 * r - 1
    if bounded and (
        curve.base_line_rank == r + 1 or ideal.dimension(top, expected[top]) == expected[top]
    ):
        dims = expected
        ideal.record_dimensions(dict(zip(window, expected)))
    else:
        # without the bound, every level is ranked exactly
        dims = tuple(ideal.dimension(k, expected[k] if bounded else None) for k in window)
    mismatches = tuple((k, dims[k], expected[k]) for k in window if dims[k] != expected[k])
    return ResolutionCertificate(
        ok=bounded and not mismatches,
        cofactor_identity=cofactor,
        syzygy_injective=injective,
        dimensions=dims,
        expected=expected,
        mismatches=mismatches,
    )


def avoids_base_line(curve: ACMCurve) -> bool:
    """True when the curve misses the line L0 = {x2 = x3 = 0}: the pencil
    x0*A1 + x1*A2 has full rank on all of L0, which keeps the projection to
    the parameter line defined on all of the curve.  That holds exactly
    when T, the pencil's minor coefficients, is invertible
    (`pencil.minor_coefficient_rank`).
    """
    return curve.base_line_rank == curve.r + 1


def random_real_curve(r: int, seed: int) -> ACMCurve:
    """Random canonical-gauge curve with the reality constraint, certified.

    Draws integer matrices until the resolution certificate passes; the
    base line is avoided automatically in the canonical gauge.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    rng = random.Random(seed)
    draw = lambda: ACMCurve.from_real_pair(
        ExactMatrix.from_integer_form(random_gaussian_pairs(rng, r + 1, r, DRAW_SPAN), 1, r)
    )
    return first_draw("certified curve", draw, lambda curve: curve.certificate().ok, r=r, seed=seed)


def random_sigma_curve(r: int, seed: int) -> ACMCurve:
    """Random sigma-paired curve in its raw gauge, drawn until certified;
    draw k takes its pencil from seed seed * MAX_DRAWS + k."""
    if r < 1:
        raise ValueError("need r >= 1")
    seeds = itertools.count(seed * MAX_DRAWS)
    draw = lambda: ACMCurve(make_sigma_invariant_pencil(r, next(seeds)))
    return first_draw("certified curve", draw, lambda curve: curve.certificate().ok, r=r, seed=seed)
