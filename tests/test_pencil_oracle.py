"""Pencil minors, injectivity and gauge against the routes they replaced.

The private reference below is the pencil code as it ran before the minors
came from one Laplace pass: `pencil_minors` by evaluation at r+1 points,
exact dets and interpolation; injectivity with an exact rank of A2 for the
point at infinity; the gauge from the kernel of the (r+2)r x (r+1)^2
system for the coefficient rows c_0..c_r.  The gauge itself may differ by
a nonzero scalar on P and its inverse on Q, so the comparison is on P*A*Q.
"""

import random

import numpy as np
import pytest

from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import UniPoly, uni_gcd, uni_interpolate
from hkcurves.exact_algebra.scalars import GaussianRational, random_gaussian_rows
from hkcurves.pencil import (
    canonical_pair,
    is_injective_pencil,
    kronecker_reduce,
    random_injective_pencil,
)
from suites import mat_add, mat_scale, mat_sub, pencil_minors

_ZERO = GaussianRational(0, 0)
_ONE = GaussianRational(1, 0)


def _ref_pencil_minors(A1, A2):
    r = A1.cols
    points = [GaussianRational(k) for k in range(r + 1)]
    samples = []
    for lam in points:
        member = mat_add(A1, mat_scale(A2, lam))
        samples.append(
            [
                ExactMatrix([[member[i, j] for j in range(r)] for i in range(r + 1) if i != skip]).det()
                for skip in range(r + 1)
            ]
        )
    return [
        uni_interpolate(points, [samples[k][skip] for k in range(r + 1)]) for skip in range(r + 1)
    ]


def _ref_report(A1, A2):
    """(ok, witness, minor_gcd) as `is_injective_pencil` computed them, the
    witness of a finite drop then also from the rationalized numeric roots
    of the gcd when its squarefree part is not linear."""
    r = A1.cols
    minors = _ref_pencil_minors(A1, A2)
    if all(m.is_zero() for m in minors):
        return False, (_ONE, _ZERO), None
    if A2.rank() < r:
        return False, (_ZERO, _ONE), None
    g = uni_gcd(minors)
    if g.degree == 0:
        return True, None, None
    reduced = g
    while reduced.degree > 1:
        derivative = UniPoly([c * k for k, c in enumerate(reduced.coeffs)][1:])
        square_part = uni_gcd([reduced, derivative])
        if square_part.degree == 0:
            break
        reduced, _ = reduced.divmod(square_part)
    if reduced.degree == 1:
        return False, (_ONE, -(reduced.coeffs[0] / reduced.coeffs[1])), g
    for z in np.roots([complex(c) for c in reversed(g.coeffs)]):
        for limit in (1, 12, 10**6):
            lam = GaussianRational.from_complex(complex(z), limit=limit)
            if g.evaluate(lam).is_zero():
                return False, (_ONE, lam), g
    return False, None, g


def _ref_gauge(A1, A2):
    r = A1.cols
    n = r + 1
    # sum_i c_k[i] A2[i,j] + c_{k-1}[i] A1[i,j] = 0 for k = 0..r+1
    rows = []
    for k in range(r + 2):
        for j in range(r):
            row = [_ZERO] * (n * n)
            for i in range(n):
                if k <= r:
                    row[k * n + i] = row[k * n + i] + A2[i, j]
                if k >= 1:
                    row[(k - 1) * n + i] = row[(k - 1) * n + i] + A1[i, j]
            rows.append(row)
    kernel = ExactMatrix(rows, cols=n * n).kernel_basis()
    assert kernel.shape[1] == 1
    c = [kernel[i, 0] for i in range(kernel.rows)]
    what = ExactMatrix([[c[k * n + i] for i in range(n)] for k in range(n)])
    rprime = what @ A1
    rp = ExactMatrix([[rprime[k, j] for j in range(r)] for k in range(r)])
    sign = [_ONE if i % 2 == 0 else -_ONE for i in range(n)]
    P = ExactMatrix([[sign[i] * what[i, j] for j in range(n)] for i in range(n)])
    rp_inv = rp.inverse()
    Q = ExactMatrix([[rp_inv[i, j] * sign[j] for j in range(r)] for i in range(r)])
    return P, Q


def _report_pencils():
    """Injective; deficient at a finite point, only at infinity, everywhere,
    and where lambda^2 - 2 vanishes; then more finite drops, three of them
    at seeded points."""
    S2, _ = canonical_pair(2)
    S3, T3 = canonical_pair(3)
    # every member has the last column zero
    Z1, Z2 = (ExactMatrix([list(row[:2]) + [_ZERO] for row in M.data]) for M in (S3, T3))
    rng = random.Random(11)
    finite = []
    for r, lam in ((2, GaussianRational(2, 1)), (3, GaussianRational(-1, 2)), (4, _ONE)):
        # B has two equal columns, so A1 + lam*A2 = B drops rank at lam
        B = [row[: r - 1] + row[:1] for row in random_gaussian_rows(rng, r + 1, r, 3)]
        A2 = ExactMatrix(random_gaussian_rows(rng, r + 1, r, 3))
        finite.append((f"finite-r{r}", (mat_sub(ExactMatrix(B), mat_scale(A2, lam)), A2)))
    return [
        ("injective", random_injective_pencil(3, 5)),
        ("finite", (
            ExactMatrix([[_ONE, _ZERO], [_ZERO, _ZERO], [_ZERO, _ZERO]]),
            ExactMatrix([[_ZERO, _ZERO], [_ZERO, _ONE], [_ONE, _ZERO]]),
        )),
        ("infinity", (S2, ExactMatrix([[_ZERO, _ZERO], [_ZERO, _ZERO], [_ZERO, _ONE]]))),
        ("everywhere", (Z1, Z2)),
        ("minus-one", (S3, S3)),
        ("lambda2-minus-2", (
            ExactMatrix([[_ZERO, GaussianRational(2)], [_ONE, _ZERO], [_ZERO, _ZERO]]),
            ExactMatrix([[_ONE, _ZERO], [_ZERO, _ONE], [_ZERO, _ZERO]]),
        )),
    ] + finite


REPORT_PENCILS = dict(_report_pencils())


def _pencils():
    out = [canonical_pair(r) for r in (1, 2, 3)]
    out += [random_injective_pencil(r, 40 + r) for r in range(1, 7)]
    return out


def test_pencil_minors_match_interpolation():
    for A1, A2 in _pencils() + list(REPORT_PENCILS.values()):
        assert pencil_minors(A1, A2) == _ref_pencil_minors(A1, A2)


def test_gauge_matches_kernel_system():
    rng = random.Random(7)
    for A1, A2 in _pencils():
        r = A1.cols
        C = ExactMatrix(random_gaussian_rows(rng, r + 1, r, 3))
        red = kronecker_reduce(A1, A2)
        P, Q = _ref_gauge(A1, A2)
        for A in (A1, A2, C):
            assert red.P @ A @ red.Q == P @ A @ Q


@pytest.mark.parametrize("name", list(REPORT_PENCILS))
def test_injectivity_report_matches_rank_route(name):
    pair = REPORT_PENCILS[name]
    report = is_injective_pencil(*pair)
    assert (report.ok, report.witness, report.minor_gcd) == _ref_report(*pair)


def test_injectivity_reports_match_on_degenerate_pencils():
    # entries in {-1, 0, 1} + {-1, 0, 1}i, half of them zeroed, make every
    # kind of report common: the rank of T decides injectivity, and the
    # witness and gcd of a pencil that drops rank are the reference's
    rng = random.Random(35)

    def entry():
        return GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1)) if rng.random() < 0.5 else _ZERO

    verdicts = []
    for r in (1, 2, 3, 4):
        for _ in range(30):
            A1, A2 = (ExactMatrix([[entry() for _ in range(r)] for _ in range(r + 1)]) for _ in range(2))
            report = is_injective_pencil(A1, A2)
            assert (report.ok, report.witness, report.minor_gcd) == _ref_report(A1, A2), r
            verdicts.append((report.ok, report.witness is None, report.minor_gcd is None))
    # injective; a witness with the gcd of a finite drop; a witness alone
    kinds = ((True, True, True), (False, False, False), (False, False, True))
    assert all(verdicts.count(kind) >= 20 for kind in kinds)
