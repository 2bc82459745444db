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

The slice data depend on t only through polynomials of degree at most r,
so `ACMCurve.slice_tables` holds the generators and the border-basis
matrices once per curve, as Gaussian-integer coefficient lists in t.  A
slice evaluates them with integers: the numerators a slice built from the
minors alone forms, so the same exact matrices, and since int / int is
correctly rounded, the same floats.  `fiber_points` slices many parameters
in one pass of stacked eigensolves, and evaluates the tables in float64
where (r+1) max(1, C) W < 2^53 and every denominator is below 2^53 (C, W
the largest |Re| + |Im| of a coefficient and of a weight (ta + i tb)^e
te^(r-e)): every product and partial sum is then an exact integer, and the
float quotient of two exact values is correctly rounded, as int / int is.

A curve that meets L0 is not a curve of Z, and every slice entry point
refuses it with one ValueError that names L0.  Its point p on L0 lies in
every plane of the pencil, at infinity in the chart, so the affine slice is
only the part residual to the line at infinity, of length at most d - 1.
The slice ideal truncated at degree c counts all d points in degree c but
only that residual below it, so its Hilbert function never settles and
depends on the cutoff, not on the fibre.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exact_algebra.linalg import ExactMatrix
from ..exact_algebra.scalars import GaussianRational
from .curve import avoids_base_line

# a slice generator: its nonzero Gaussian-integer numerators (a, b) by
# (u, v) exponent, over one positive denominator
Bivar = Tuple[Dict[Tuple[int, int], Tuple[int, int]], int]


def fiber_generators(curve, t: GaussianRational) -> List[Bivar]:
    """Generators of the slice ideal in (u, v) at x0 = u, x1 = v, x2 = 1,
    x3 = t: the curve's minors, read off its slice tables, as
    Gaussian-integer numerators over one denominator."""
    gens, den, _, _ = curve.slice_tables
    (re, im), dens = _evaluate(gens, den, _weights([t], curve.r))
    out: List[Bivar] = []
    for a, b, n in zip(re[0], im[0], dens[0].flat):
        terms = {m: (a[m], b[m]) for m in np.ndindex(a.shape) if a[m] or b[m]}
        if terms:
            out.append((terms, n))
    return out


def _weights(ts: Sequence[GaussianRational], r: int) -> Tuple[np.ndarray, np.ndarray]:
    """(w, scales), object arrays: w[:, e, k] the (re, im) of (ta + i tb)^e
    te^(r-e) and scales[k] = te^r, at t_k = (ta + i tb) / te, e = 0..r."""
    rows, scales = [], []
    for t in ts:
        ta, tb, te = t.integer_parts()
        pa, pb, row = 1, 0, []
        for e in range(r + 1):
            row.append((pa * te ** (r - e), pb * te ** (r - e)))
            pa, pb = pa * ta - pb * tb, pa * tb + pb * ta
        rows.append(row)
        scales.append(te**r)
    return np.array(rows, dtype=object).transpose(2, 1, 0), np.array(scales, dtype=object)


def _evaluate(table, den, weights) -> Tuple[np.ndarray, np.ndarray]:
    """A table of `ACMCurve.slice_tables` at each t of `_weights`, t first:
    (numerators, denominators).  At t = (ta + i tb) / te the coefficients
    c_e give sum_e c_e (ta + i tb)^e te^(r-e) over den te^r."""
    (re, im), ((wa, wb), scales) = table, weights
    num = np.stack([re @ wa - im @ wb, re @ wb + im @ wa])
    return np.moveaxis(num, -1, 1), np.multiply.outer(scales, den)


def _floats(table, den, weights) -> np.ndarray:
    """complex(a / n, b / n) of each entry (a + b i) / n of the table at each
    t of `_weights`: int / int is correctly rounded, the float nearest each
    exact part.

    In float64 when (r+1) max(1, C) W < 2^53 and every n < 2^53, with C the
    largest |Re c| + |Im c| of the table and W that of the weights: the real
    block [[wa, wb], [-wb, wa]] makes every product and every partial sum,
    in any order, an integer below 2^53, so a and b come out exact, and the
    float quotient of two exact values is correctly rounded too.  `+ 0.0`
    turns a zero numerator's -0.0 into the +0.0 of 0 / n.  Above the bound
    the table is evaluated with Python ints."""
    (re, im), ((wa, wb), scales) = table, weights
    dens = np.multiply.outer(scales, den)
    span = max(1, (np.abs(re) + np.abs(im)).max()) * (np.abs(wa) + np.abs(wb)).max()
    if table.shape[-1] * span < 2**53 and dens.max() < 2**53:
        wa, wb = wa.astype(float), wb.astype(float)
        num = np.concatenate([re, im], axis=-1).astype(float) @ np.block([[wa, wb], [-wb, wa]])
        num = np.moveaxis(num.reshape(num.shape[:-1] + (2, -1)), (-2, -1), (-1, 0))
        num = num / dens.astype(float)[..., None] + 0.0
    else:
        num = np.moveaxis(_evaluate(table, den, weights)[0] / dens, 0, -1)
    return np.ascontiguousarray(num, dtype=float).view(complex)[..., 0]


def _refuse_base_line(curve) -> None:
    if not avoids_base_line(curve):
        raise ValueError("curve meets the base line L0 = {x2 = x3 = 0}: not a curve of Z, no slices")


def hilbert_profile(curve, t: GaussianRational) -> Tuple[int, ...]:
    """H(0), ..., H(r+2) of every slice of a curve that misses L0, by the theorem."""
    _refuse_base_line(curve)
    return tuple(expected_hilbert(curve.r, k) for k in range(curve.r + 3))


def fiber_multiplication_matrices(curve, t: GaussianRational) -> Tuple[ExactMatrix, ExactMatrix]:
    _refuse_base_line(curve)
    _, _, mats, den = curve.slice_tables
    num, dens = _evaluate(mats, den, _weights([t], curve.r))
    pairs = [tuple(tuple(zip(ra, ia)) for ra, ia in zip(re, im)) for re, im in zip(*num[:, 0].tolist())]
    return tuple(ExactMatrix.from_integer_form(rows, dens.flat[0], len(rows)) for rows in pairs)


def backward_errors(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per slice and point (u, v) of `pts` (..., P, 2), the largest over the
    slice's generators, `coeffs` (..., G, r+1, r+1) with the coefficient of
    u^i v^j at [i, j], of |g(p)| / sum |c| |u|^i |v|^j (see `fiber_points`)."""
    powers = np.arange(coeffs.shape[-1])
    monomials = (pts[..., :1] ** powers)[..., :, None] * (pts[..., 1:] ** powers)[..., None, :]
    monomials = monomials.reshape(pts.shape[:-1] + (len(powers) ** 2,))
    coeffs = coeffs.reshape(coeffs.shape[:-2] + (len(powers) ** 2,))
    values = np.abs(monomials @ coeffs.swapaxes(-1, -2))
    bounds = np.abs(monomials) @ np.abs(coeffs).swapaxes(-1, -2)
    return np.divide(values, bounds, out=np.zeros_like(values), where=bounds > 0).max(axis=-1, initial=0.0)


def _each(solve, stack: np.ndarray) -> Tuple[tuple, np.ndarray]:
    """`solve` over a stack of matrices in one call, or matrix by matrix when
    that raises LinAlgError: (its outputs on the matrices it solves, stacked,
    and the mask of those).  LAPACK runs once per matrix either way."""
    try:
        return tuple(solve(stack)), np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        outs = []
        for m in stack:
            try:
                outs.append(tuple(solve(m)))
            except np.linalg.LinAlgError:
                outs.append(None)
    ok = np.array([out is not None for out in outs], dtype=bool)
    if not ok.any():
        return tuple(solve(stack[:0])), ok
    return tuple(np.stack(parts) for parts in zip(*(out for out in outs if out is not None))), ok


# the largest relative residual `fiber_points` accepts
_RESIDUAL_TOL = 1e-8


@functools.cache
def _draws() -> Tuple[Tuple[complex, complex], ...]:
    """The (a, b) of the six attempts of `fiber_points`, from default_rng(2),
    drawn on first use: loading numpy.random at import costs every command
    about 5 MB of RSS."""
    rng = np.random.default_rng(2)
    return tuple(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(6))


def fiber_points(curve, ts: Sequence[GaussianRational]) -> List[Optional[np.ndarray]]:
    """The slice points over each t, as complex (u, v) pairs, or None where
    the slice is rejected, via commuting multiplication operators.

    The matrices are exact, from `ACMCurve.slice_tables` evaluated with
    exact integers (`_floats`, on weights built once for both tables): the
    same numerators as a slice built alone, so the same floats.  Only the
    eigensolve is numeric: each attempt diagonalizes a Mu + b Mv for one
    draw (a, b), shared by every slice still pending, in one stacked
    eigensolve; the draws are those of a slice alone, so each slice
    gets the floats it gets alone.  A slice passes an attempt when its
    eigenvalues are separated, its eigenvectors invert and diagonalize Mu
    and Mv, and each point has a backward error of at most `_RESIDUAL_TOL`
    for every generator g = sum c u^i v^j: |g(p)| / sum |c| |u|^i |v|^j is
    the smallest relative change of g's coefficients that makes p an exact
    zero (Higham, Accuracy and Stability of Numerical Algorithms, sec.
    5.1).  Unlike |g(p)|, it does not grow with the coefficients or with the
    points, which both grow with r.  Points are sorted deterministically.
    A slice that fails six attempts, not reduced enough for the eigenvector
    method, or whose eigensolve raises LinAlgError is rejected.  A curve
    that meets L0 raises the ValueError that names L0: its point there
    lies at infinity on every slice, so no slice holds all its points.
    """
    _refuse_base_line(curve)
    out: List[Optional[np.ndarray]] = [None] * len(ts)
    if not ts:
        return out
    gens, gens_den, mats, mats_den = curve.slice_tables
    weights = _weights(ts, curve.r)
    mats = _floats(mats, mats_den, weights)
    coeffs = _floats(gens, gens_den, weights)
    n = mats.shape[-1]
    pending = np.arange(len(ts))
    for a, b in _draws():
        if not len(pending):
            break
        (vals, vecs), solved = _each(np.linalg.eig, a * mats[pending, 0] + b * mats[pending, 1])
        pending = pending[solved]
        gaps = np.abs(vals[:, :, None] - vals[:, None, :]) + np.diag(np.full(n, np.inf))
        apart = ~(gaps.min(axis=(1, 2)) < 1e-9 * np.maximum(1.0, np.abs(vals).max(axis=1)))
        (inv,), inverted = _each(lambda m: (np.linalg.inv(m),), vecs[apart])
        idx, vecs = pending[apart][inverted], vecs[apart][inverted]
        # inv M vecs for M = Mu, Mv: the points on the diagonal, nothing off it
        proj = inv[:, None] @ mats[idx] @ vecs[:, None]
        diag = np.diagonal(proj, axis1=2, axis2=3)
        off = np.abs(proj)
        off[..., range(n), range(n)] = 0
        good = ~(off.max(axis=(1, 2, 3)) > _RESIDUAL_TOL * np.maximum(1.0, np.abs(diag).max(axis=(1, 2))))
        idx, pts = idx[good], diag[good].transpose(0, 2, 1)
        good = (backward_errors(coeffs[idx], pts) <= _RESIDUAL_TOL).all(axis=1)
        idx, pts = idx[good], pts[good]
        order = np.lexsort([np.round(part(pts[..., c]), 9) for c in (1, 0) for part in (np.imag, np.real)])
        for q, p, o in zip(idx, pts, order):
            out[q] = p[o]
        pending = pending[[out[q] is None for q in pending]]
    return out


# a part n/q, |n| <= 9, 1 <= q <= 4, is the integer 12n/q over 12; there are
# 51 of them, so `random_fiber_parameters` has 51^2 = 2601 values to give
MAX_FIBERS = len({12 // q * n for n in range(-9, 10) for q in range(1, 5)}) ** 2


def random_fiber_parameters(count: int, seed: int) -> List[GaussianRational]:
    """`count` distinct seeded plane parameters with small denominators, in
    the order of their first draw; at most MAX_FIBERS."""
    if count > MAX_FIBERS:
        raise ValueError(f"at most {MAX_FIBERS} distinct fiber parameters, asked for {count}")
    rng = random.Random(seed)
    out: Dict[Tuple[int, int], GaussianRational] = {}
    while len(out) < count:
        a, b, c, d = rng.randint(-9, 9), rng.randint(1, 4), rng.randint(-9, 9), rng.randint(1, 4)
        key = (12 // b * a, 12 // d * c)
        if key not in out:
            out[key] = GaussianRational.over(*key, 12)
    return list(out.values())


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
