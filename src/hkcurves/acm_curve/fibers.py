"""Planar slices of a curve in Z = P^3 minus L0, along the planes x3 = t * x2.

Every plane of the pencil contains L0 = {x2 = x3 = 0}, so Z fibres over the
parameter line.  The slice over a finite parameter t lives in the affine
chart x2 = 1 with coordinates (u, v) = (x0/x2, x1/x2), and L0 is its line at
infinity.  The slice over t = infinity is the finite slice over 0 of the
same curve with A3 and A4 swapped, which swaps x2 and x3.  A curve that
misses L0 (`avoids_base_line`) lies in Z and has finite slices of length
d = r(r+1)/2 with exact restricted Hilbert-Burch complexes, on which x2 is a
nonzerodivisor: the affine profile is `expected_hilbert`, and u^a v^b,
a + b <= r - 1, is a basis.  The degree-r part of slice
generator g_k is minor k on L0, row k of T (`ACMCurve.base_line`), so a
degree-r monomial b has the normal form b - sum c_k g_k with c = T^-1 e_b: a
border basis (Mourrain, AAECC 1999; Kehrein, Kreuzer and Robbiano 2005).

A curve that meets L0 is not a curve of Z, and every slice entry point
refuses it with one ValueError that names L0.  Its point p on L0 lies in
every plane of the pencil, at infinity in the chart, so the affine slice is
only the part residual to the line at infinity, of length at most d - 1.
The slice ideal truncated at degree c counts all d points in degree c but
only that residual below it, so its Hilbert function never settles and
depends on the cutoff, not on the fibre.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exact_algebra.linalg import ExactMatrix
from ..exact_algebra.scalars import GaussianRational
from .curve import avoids_base_line

# a slice generator: its nonzero Gaussian-integer numerators (a, b) by
# (u, v) exponent, over one positive denominator
Bivar = Tuple[Dict[Tuple[int, int], Tuple[int, int]], int]


def fiber_generators(curve, t: GaussianRational) -> List[Bivar]:
    """Generators of the slice ideal in (u, v) at x0 = u, x1 = v, x2 = 1,
    x3 = t, from the curve's minors, as Gaussian-integer numerators over one
    denominator."""
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


def _refuse_base_line(curve) -> None:
    if not avoids_base_line(curve):
        raise ValueError("curve meets the base line L0 = {x2 = x3 = 0}: not a curve of Z, no slices")


def hilbert_profile(curve, t: GaussianRational) -> Tuple[int, ...]:
    """H(0), ..., H(r+2) of every slice of a curve that misses L0, by the theorem."""
    _refuse_base_line(curve)
    return tuple(expected_hilbert(curve.r, k) for k in range(curve.r + 3))


def _border_matrices(curve, gens: Sequence[Bivar], t: GaussianRational, entry) -> List[list]:
    """The u and v matrices of a curve that misses L0 on the basis u^a v^b,
    a + b <= r - 1, highest degree first, entries `entry(a, b, den)` for
    (a + b*i) / den.  With T^-1 = A / L, the normal form of u^(r-j) v^j is
    -sum_k A[j][k] (N_k below degree r) / (L te^r): the degree-r part of
    generator k's numerators N_k is te^r times row k of T."""
    r = curve.r
    inverse, scale = curve.base_line_inverse
    den = scale * t.integer_parts()[2] ** r
    basis = sorted(((a, b) for a in range(r) for b in range(r - a)), key=lambda m: (-sum(m), -m[0]))
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


def fiber_multiplication_matrices(curve, t: GaussianRational) -> Tuple[ExactMatrix, ExactMatrix]:
    _refuse_base_line(curve)
    gens = fiber_generators(curve, t)
    mu, mv = _border_matrices(
        curve, gens, t, lambda a, b, n: GaussianRational(Fraction(a, n), Fraction(b, n)))
    return ExactMatrix(mu), ExactMatrix(mv)


def backward_errors(r: int, gens: Sequence[Bivar], pts: np.ndarray) -> np.ndarray:
    """Per point (u, v) of `pts`, the largest over the generators, of degree
    at most r, of |g(p)| / sum |c| |u|^i |v|^j (see `fiber_points`)."""
    coeffs = np.zeros((len(gens), r + 1, r + 1), dtype=complex)
    for row, (g, den) in zip(coeffs, gens):
        for (i, j), (a, b) in g.items():
            # int / int is correctly rounded: the float nearest each part
            row[i, j] = complex(a / den, b / den)
    coeffs = coeffs.reshape(len(gens), -1)
    powers = np.arange(r + 1)
    monomials = (pts[:, :1] ** powers)[:, :, None] * (pts[:, 1:] ** powers)[:, None, :]
    monomials = monomials.reshape(len(pts), -1)
    values = np.abs(monomials @ coeffs.T)
    bounds = np.abs(monomials) @ np.abs(coeffs).T
    return np.divide(values, bounds, out=np.zeros_like(values), where=bounds > 0).max(axis=1, initial=0.0)


# the largest relative residual `fiber_points` accepts
_RESIDUAL_TOL = 1e-8


def fiber_points(curve, t: GaussianRational) -> np.ndarray:
    """Slice points as complex (u, v) pairs, via commuting multiplication ops.

    The matrices are exact; only the eigensolve is numeric.  Points are
    sorted deterministically, and each must have a backward error of at
    most `_RESIDUAL_TOL` for every generator g = sum c u^i v^j:
    |g(p)| / sum |c| |u|^i |v|^j is the smallest relative change of g's
    coefficients that makes p an exact zero (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 5.1).  Unlike |g(p)|, it does not grow
    with the coefficients or with the points, which both grow with r.
    Raises ArithmeticError when the slice is not reduced enough for the
    eigenvector method (clustered spectrum, large residuals).  A curve that
    meets L0 raises the ValueError that names L0: its point there lies at
    infinity on every slice, so no slice holds all its points.
    """
    _refuse_base_line(curve)
    gens = fiber_generators(curve, t)
    nu, nv = map(np.array, _border_matrices(curve, gens, t, lambda a, b, n: complex(a / n, b / n)))
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
        if max(np.abs(off_u).max(), np.abs(off_v).max()) > _RESIDUAL_TOL * max(
            1.0, np.abs(du).max(), np.abs(dv).max()
        ):
            continue
        pts = np.stack([du, dv], axis=1)
        if not (backward_errors(curve.r, gens, pts) <= _RESIDUAL_TOL).all():
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
    """One certified slice: parameter, H(0), ..., H(r+2)."""

    r: int
    d: int
    t: GaussianRational
    profile: Tuple[int, ...]

    def length(self) -> int:
        return self.profile[-1]


def restrict_to_fiber(curve, t: GaussianRational) -> FiberScheme:
    """Slice of a certified curve that misses L0 over one plane of the pencil.

    Refuses uncertified curves: the length and Hilbert statements below
    only follow from the resolution, so the certificate runs first.  A
    certified curve that meets L0 is refused next, with the ValueError that
    names L0 (an uncertified curve always meets L0).
    """
    if not curve.certificate().ok:
        raise ValueError("resolution certificate failed; slice data unreliable")
    return FiberScheme(curve.r, curve.degree, t, hilbert_profile(curve, t))


def fiber_hilbert_function(scheme: FiberScheme) -> Tuple[int, ...]:
    """H(0), ..., H(r+2) of the slice."""
    return scheme.profile


def stratum_check(scheme: FiberScheme) -> bool:
    """True when the slice sits in the open stratum: full Hilbert growth
    below degree r, then constant at the curve degree."""
    profile = scheme.profile
    return all(profile[k] == expected_hilbert(scheme.r, k) for k in range(len(profile)))
