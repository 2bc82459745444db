"""Metric extraction from the fibration of an invariant curve.

A point of the parameter space is a sigma-invariant curve, an `ACMCurve`.
Its flat chart is the same curve in the canonical gauge (S, T, A3,
tau(A3)), as `ACMCurve.from_real_pair` builds it, with A3 as the local
coordinates.  The space carries three symplectic forms, one per
quaternionic complex structure.  Pairing tangent directions through
fiberwise point derivatives and fitting the parameter dependence
recovers all three at once; the metric must then come out constant
across charts, which is the flatness test.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .acm_curve.curve import ACMCurve, LinearMatrix, random_real_curve
from .acm_curve.fibers import fiber_points
from .exact_algebra.linalg import ExactMatrix, random_invertible
from .exact_algebra.scalars import GaussianRational
from .pencil import canonical_pair, kronecker_reduce
from .reality import reality_conjugate


# ---------------------------------------------------------------------------
# flat charts


def normalize_to_flat_chart(curve: ACMCurve | LinearMatrix) -> LinearMatrix:
    """The canonical gauge (S, T, A3, tau(A3)) of a curve or bare matrix.

    Only `r` and `coeffs` are read.  The pencil part is reduced to
    canonical form exactly; the transported last two coefficients are
    unique because the canonical pair has no continuous symmetry acting on
    them, so the conjugation constraint must hold exactly or the curve was
    not invariant in the first place.
    """
    red = kronecker_reduce(curve.coeffs[0], curve.coeffs[1])
    S, T = canonical_pair(curve.r)
    A3 = red.P @ curve.coeffs[2] @ red.Q
    A4 = red.P @ curve.coeffs[3] @ red.Q
    if A4 != reality_conjugate(A3):
        raise ValueError("conjugation constraint fails in the flat chart")
    return LinearMatrix(curve.r, S, T, A3, A4)


# ---------------------------------------------------------------------------
# the real tangent basis and the quaternionic operators, as arrays; their
# exact reference, the section operators, is in tests/suites.py


def _read_only(arrays: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def basis_arrays(r: int) -> Tuple[np.ndarray, np.ndarray]:
    """The numeric (dA3, dA4) of the real tangent basis, each (2 r(r+1), r+1, r),
    built once per r and read-only; `section_arrays(real_tangent_basis(r))`
    of tests/suites.py is its exact reference.

    Each move of A3 drags A4 along through the conjugation, so the span
    stays inside the invariant locus.  dA3 runs over the unit matrices,
    row-major (the real coordinates), then i times them (the imaginary
    ones); dA4 = tau(dA3) is
    entry (i, j) = conj((-1)^(i+j+1) dA3[r-i, r-1-j]), as in
    `reality_conjugate` (+ 0j turns its negative zeros positive).
    """
    m = r * (r + 1)
    dA3 = np.concatenate([np.eye(m), 1j * np.eye(m)]).reshape(2 * m, r + 1, r)
    s = np.where(np.add.outer(np.arange(r + 1), np.arange(r)) % 2, 1.0, -1.0)
    return _read_only((dA3, np.conj(s * dA3[:, ::-1, ::-1]) + 0j))


@functools.lru_cache(maxsize=None)
def structure_arrays(r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I, J and K on the real coordinates, built once per r and read-only.

    Column k holds the coordinates of the operator applied to basis move k
    (`basis_arrays`): the real parts of its dA3, row-major, then the
    imaginary parts.  I x has dA3 = i dA3(x) and J x has dA3 = i dA4(x),
    and i (a + b i) = -b + a i, so each is a signed permutation, and
    K = I J is exact in floats.  + 0.0 turns negative zeros positive.  The
    exact reference is `section_I`, `section_J` and `section_K` of
    tests/suites.py on `real_tangent_basis`.
    """
    dA3, dA4 = (d.reshape(len(d), -1) for d in basis_arrays(r))
    Imat, Jmat = (np.concatenate([-d.imag, d.real], axis=1).T + 0.0 for d in (dA3, dA4))
    return _read_only((Imat, Jmat, Imat @ Jmat + 0.0))


@functools.lru_cache(maxsize=None)
def complex_structures(r: int) -> Tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Exact matrices of the three quaternionic operators on real
    coordinates: the integer matrices of `structure_arrays`."""
    n = 2 * r * (r + 1)
    return tuple(
        ExactMatrix.from_integer_form(tuple(tuple((v, 0) for v in row) for row in M.astype(int).tolist()), 1, n)
        for M in structure_arrays(r)
    )


# ---------------------------------------------------------------------------
# fiberwise point derivatives


# backward error below which a singular value counts as zero
_RANK_TOL = 1e-10
# largest condition number of the 2x2 tangent system that is solved
_COND_BOUND = 1e8


def point_derivative(
    numeric: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ts: Sequence[complex | GaussianRational],
    points: Sequence[Tuple[complex, complex]],
    sections: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """First-order moves (du, dv) of fiber points under each chart move.

    Point p is where M = A1 u + A2 v + A3 + t A4 (`numeric`, t = ts[p]), of
    shape (r+1, r), drops rank, so points of several fibers can share a
    call.  One stacked SVD gives L, the left singular vectors of the two
    smallest singular values, and x, the right one of the smallest: the
    left and right kernels of M where it has corank one.  There the move
    under E = dA3 + t dA4 solves J (du, dv) = -L E x, J = [L A1 x, L A2 x],
    by the implicit function theorem.  It is the move of the maximal
    minors: the adjugate of a corank-one square matrix is the outer product
    of its kernel vectors, so each minor's derivative along any E is one
    fixed combination of the two entries of L E x.  A parameter in ts may
    be exact or its complex value.

    Returns deltas, (P, S, 2) with deltas[p, s] for section s, and ok[p],
    False (deltas[p] meaningless) when, with scale(p) = |A1||u| + |A2||v| +
    |A3| + |t||A4| >= |M(p)| in spectral norms, sigma_r > _RANK_TOL scale(p)
    (sigma_k is the distance to rank k - 1, Eckart-Young), sigma_(r-1) <=
    _RANK_TOL scale(p) for r >= 2, or cond(J) >= _COND_BOUND.  A failed J is
    replaced by I.  Under the bound a 2x2 LU with partial pivoting meets no
    zero pivot: its backward error, a few ulps of |J|, is far below
    sigma_min(J) = |J| / cond(J).  So the one stacked solve cannot raise,
    and each point gets the floats it would get alone.
    """
    A1n, A2n, A3n, A4n = numeric
    r, P = A1n.shape[1], len(points)
    u, v = np.array(points, dtype=complex).reshape(P, 2).T
    tn = np.array([complex(t) for t in ts], dtype=complex)
    M = u[:, None, None] * A1n + v[:, None, None] * A2n + A3n + tn[:, None, None] * A4n
    U, sigma, Vh = np.linalg.svd(M)
    L = U[:, :, r - 1:].conj().transpose(0, 2, 1)
    x = Vh[:, r - 1].conj()
    # the spectral norms of A1..A4, as np.linalg.norm(..., 2, axis=(1, 2)) gives them
    norms = np.linalg.svd(np.stack(numeric), compute_uv=False)[:, 0]
    scale = norms[0] * abs(u) + norms[1] * abs(v) + norms[2] + norms[3] * abs(tn)
    # corank one: of the singular values, in falling order, only the last is small
    ok = (sigma <= _RANK_TOL * scale[:, None]).sum(axis=1) == 1
    # (L E x)[p, a] = Lx[p, a] . E flattened; products stacked per point, batch-independent
    Lx = (L[:, :, :, None] * x[:, None, None, :]).reshape(P, 2, (r + 1) * r)
    J = Lx @ np.stack([A1n.ravel(), A2n.ravel()], axis=1)
    sv = np.linalg.svd(J, compute_uv=False)
    ok &= sv[:, 0] < _COND_BOUND * sv[:, 1]
    J[~ok] = np.eye(2)
    dA3, dA4 = (d.reshape(len(d), -1).T for d in sections)
    rhs = -(Lx @ dA3 + tn[:, None, None] * (Lx @ dA4))
    return np.linalg.solve(J, rhs).transpose(0, 2, 1), ok


# ---------------------------------------------------------------------------
# sampling and fitting


@functools.lru_cache(maxsize=None)
def _candidate(k: int) -> Tuple[GaussianRational, complex]:
    """Candidate k of `sample_parameters` and its complex value; it depends
    on k mod 16 only."""
    radius = 0.5 if k % 2 == 0 else 2.0
    angle = 2.0 * cmath.pi * ((k * 5) % 16) / 16.0 + 0.17
    t = GaussianRational.from_complex(radius * cmath.exp(1j * angle), limit=16)
    return t, complex(t)


def sample_parameters(count: int) -> List[GaussianRational]:
    """Exact plane parameters near two circles, small denominators.

    Radii 1/2 and 2 straddle the unit circle so a quadratic in t is
    well conditioned.  The list repeats with period 16, and its
    (immutable) entries are built once and shared.
    """
    return [_candidate(k % 16)[0] for k in range(count)]


def fit_quadratic(ts: Sequence[complex], ws: np.ndarray) -> Tuple[np.ndarray, float]:
    """Least squares c0 + c1 t + c2 t^2 for each sample column of ws.

    ws has shape (num_t, ...); returns coefficients of shape (3, ...)
    and the largest absolute fit residual.
    """
    tarr = np.array(ts, dtype=complex)
    V = np.stack([np.ones_like(tarr), tarr, tarr**2], axis=1)
    flat = ws.reshape(len(ts), -1)
    coeffs, *_ = np.linalg.lstsq(V, flat, rcond=None)
    resid = float(np.abs(V @ coeffs - flat).max()) if flat.size else 0.0
    return coeffs.reshape((3,) + ws.shape[1:]), resid


# ---------------------------------------------------------------------------
# metric extraction


@dataclass(frozen=True)
class HKFrame:
    """Constant-coefficient metric data of one chart."""

    r: int
    gram: np.ndarray                  # real symmetric, 2r(r+1) square
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    signature: Tuple[int, int]
    fit_residual: float
    quaternion_residuals: Dict[str, float]
    parameters: Tuple[GaussianRational, ...]


# fibers sampled per chart, the fewest a frame is fitted on, and the largest
# relative residual of the quadratic fit
_NUM_FIBERS = 7
_MIN_FIBERS = 5
_FIT_TOL = 1e-8


def extract_metric(curve: ACMCurve) -> HKFrame:
    """All three symplectic pairings of a curve's chart, its own gauge,
    from fiberwise sampling.

    Every tangent basis pair is paired on each sampled fiber through the
    point derivatives; the parameter dependence of the pairing is an
    exact quadratic whose three coefficients carry the three forms.  The
    metric is the I-pairing composed with I, and the J and K pairings
    are checked against it as quaternionic residuals.  A curve that meets
    L0 is not a curve of Z and is refused as a whole, not fiber by fiber:
    the ValueError of `fiber_points` that names L0 propagates from here.

    The candidate fibers are one period of `sample_parameters`, walked
    once: a fiber's points and their derivatives are deterministic, so a
    fiber rejected once would be rejected again.
    """
    r = curve.r
    numeric = curve.matrix.numeric()
    basis = basis_arrays(r)
    n = len(basis[0])
    # (t, complex(t)) of the accepted fibers
    fibers: List[Tuple[GaussianRational, complex]] = []
    all_deltas: List[np.ndarray] = []
    walk = map(_candidate, range(16))
    while len(fibers) < _NUM_FIBERS:
        # the walk's next fibers, as many as are missing, share one slice pass
        # and one derivative batch
        batch = list(itertools.islice(walk, _NUM_FIBERS - len(fibers)))
        if not batch:
            break
        slices = fiber_points(curve, [t for t, _ in batch])
        sliced = [(fiber, pts) for fiber, pts in zip(batch, slices) if pts is not None]
        deltas, ok = point_derivative(
            numeric,
            [tc for (_, tc), pts in sliced for _ in pts],
            [(complex(u), complex(v)) for _, pts in sliced for u, v in pts],
            basis,
        )
        cuts = np.cumsum([len(pts) for _, pts in sliced])[:-1]
        for (fiber, _), d, good in zip(sliced, np.split(deltas, cuts), np.split(ok, cuts)):
            if good.all():
                fibers.append(fiber)
                all_deltas.append(np.ascontiguousarray(d.transpose(1, 0, 2)))
    if len(fibers) < _MIN_FIBERS:
        raise ArithmeticError(f"only {len(fibers)} usable fibers of {_MIN_FIBERS} needed")
    # omega samples: W[k, a, b] = sum_p du_a dv_b - dv_a du_b at t_k
    W = np.empty((len(fibers), n, n), dtype=complex)
    for k, deltas in enumerate(all_deltas):
        du = deltas[:, :, 0]
        dv = deltas[:, :, 1]
        W[k] = du @ dv.T - dv @ du.T
    coeffs, resid = fit_quadratic([tc for _, tc in fibers], W)
    if resid > _FIT_TOL * max(1.0, float(np.abs(W).max())):
        raise ArithmeticError(f"parameter fit residual {resid:.2e} too large")
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]
    omega_I = 0.5j * c1
    omega_J = (c0 - c2) / 2j
    omega_K = -0.5 * (c0 + c2)
    Imat, Jmat, Kmat = structure_arrays(r)
    gram_c = omega_I @ Imat
    scale = max(1.0, float(np.abs(gram_c).max()))
    residuals = {
        "gram_imag": float(np.abs(gram_c.imag).max()) / scale,
        "gram_symmetry": float(np.abs(gram_c - gram_c.T).max()) / scale,
        "I_compatibility": float(np.abs(Imat.T @ gram_c.real @ Imat - gram_c.real).max()) / scale,
        "omega_J": float(np.abs(omega_J - Jmat.T @ gram_c).max()) / scale,
        "omega_K": float(np.abs(omega_K - Kmat.T @ gram_c).max()) / scale,
    }
    # a copy, so that the frame does not keep gram_c alive through a view
    gram = gram_c.real.copy()
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    cut = 1e-8 * max(1.0, float(np.abs(eigs).max()))
    signature = (int((eigs > cut).sum()), int((eigs < -cut).sum()))
    return HKFrame(
        r=r,
        gram=gram,
        I=Imat,
        J=Jmat,
        K=Kmat,
        signature=signature,
        fit_residual=resid,
        quaternion_residuals=residuals,
        parameters=tuple(t for t, _ in fibers),
    )


# ---------------------------------------------------------------------------
# flatness scan


def _drawn_and_scrambled(r: int, seed: int) -> Tuple[ACMCurve, LinearMatrix]:
    curve = random_real_curve(r, seed=seed * 7919 + 11)
    rng = random.Random(seed * 104729 + r)
    G = random_invertible(r + 1, rng)
    H = random_invertible(r, rng)
    return curve, curve.matrix.gauge(G, H)


@dataclass(frozen=True)
class MetricReport:
    r: int
    num_points: int
    skip_sigma_gauge: bool
    signatures: Tuple[Tuple[int, int], ...]
    max_relative_deviation: float
    max_fit_residual: float
    max_quaternion_residual: float
    signature_constant: bool
    passed: bool


def scan_chart(
    r: int, seed: int, num_points: int, index: int, skip_sigma_gauge: bool = False
) -> ACMCurve:
    """The curve of chart number `index` of a flatness scan, one derivation
    for all callers.

    A flat chart is normalized in full, then must give back the drawn A3
    exactly: the stabilizer of (S, T) is {(cI, c^-1 I)}, so the reduction
    (P, Q) of the scrambled pencil (G S H, G T H) has P G = cI, H Q = c^-1 I.
    The chart is then the certified curve it was drawn as, that object
    itself.  The control skips the normalization and reads the scrambled
    matrix in its own gauge.
    """
    drawn, scrambled = _drawn_and_scrambled(r, seed * num_points + index)
    if skip_sigma_gauge:
        return ACMCurve(scrambled)
    if normalize_to_flat_chart(scrambled).A3 != drawn.coeffs[2]:
        raise AssertionError("the flat chart does not give back the drawn curve")
    return drawn


# the largest relative deviation of a chart's gram from the mean, and the
# largest quaternionic residual of a frame, that pass
_DEVIATION_TOL = 1e-6


def frames_report(r: int, frames: Sequence[HKFrame], skip_sigma_gauge: bool) -> MetricReport:
    """Verdict over already extracted frames: it passes when every gram
    lies within `_DEVIATION_TOL` of the mean gram, relative to the mean's
    largest entry (or 1), all frames share one signature, and every frame's
    quaternionic residual is below `_DEVIATION_TOL`.  With one frame
    constancy cannot fail, so a raw-gauge chart fails on its residuals."""
    grams = [frame.gram for frame in frames]
    signatures = [frame.signature for frame in frames]
    fit_res = max(frame.fit_residual for frame in frames)
    quat_res = max(max(frame.quaternion_residuals.values()) for frame in frames)
    # adds as np.stack(grams).mean(axis=0) does, without a long scan's largest array
    mean = sum(grams[1:], grams[0]) / len(grams)
    scale = max(1.0, float(np.abs(mean).max()))
    deviation = max(float(np.abs(g - mean).max()) for g in grams) / scale
    sig_const = len(set(signatures)) == 1
    return MetricReport(
        r=r,
        num_points=len(frames),
        skip_sigma_gauge=skip_sigma_gauge,
        signatures=tuple(signatures),
        max_relative_deviation=deviation,
        max_fit_residual=fit_res,
        max_quaternion_residual=quat_res,
        signature_constant=sig_const,
        passed=deviation < _DEVIATION_TOL and sig_const and quat_res < _DEVIATION_TOL,
    )


def flatness_scan(r: int, num_points: int, seed: int, skip_sigma_gauge: bool = False) -> MetricReport:
    """Extract the metric at several random charts and compare.

    Each sample is an invariant curve in a scrambled gauge.  The honest
    path normalizes to the flat chart first, so every sample reports in
    one coordinate system and the constancy of the metric is the
    verification target.  Skipping the normalization reads each sample
    in its own gauge, which must fail the verdict: on several charts
    constancy breaks, and on one chart the quaternionic residuals do.
    That failure is the control that the test can fail at all.
    """
    frames = [
        extract_metric(scan_chart(r, seed, num_points, k, skip_sigma_gauge))
        for k in range(num_points)
    ]
    return frames_report(r, frames, skip_sigma_gauge)
