"""Correctness checks that do not run through the library's own code paths.

Exact products use ``Fraction`` pairs written here, and ranks are taken
modulo ``P_OUT``, a prime = 1 mod 4 that the library's ``modp.PRIMES`` does
not contain, with an elimination written here.  Rank modulo a prime never
exceeds the exact rank, so a modular rank that meets a proven upper bound
certifies the exact rank.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import List, Sequence, Tuple

import numpy as np

# largest prime below 2**30; (P_OUT - 1)**2 fits in int64
P_OUT = 1073741789


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, 100):
        s = pow(g, (p - 1) // 4, p)
        if (s * s + 1) % p == 0:
            return s
    raise ArithmeticError(f"no square root of -1 found mod {p}")


S_OUT = _sqrt_minus_one(P_OUT)

Pair = Tuple[Fraction, Fraction]


# -- exact Q(i) arithmetic on (re, im) Fraction pairs ------------------------


def matrix_pairs(m) -> List[List[Pair]]:
    """Entries of an ExactMatrix as (re, im) Fraction pairs."""
    rows, cols = m.shape
    return [[(m[i, j].re, m[i, j].im) for j in range(cols)] for i in range(rows)]


def pair_matmul(a: List[List[Pair]], b: List[List[Pair]]) -> List[List[Pair]]:
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            re = im = Fraction(0)
            for k, (x, y) in enumerate(row):
                u, v = b[k][j]
                re += x * u - y * v
                im += x * v + y * u
            out_row.append((re, im))
        out.append(out_row)
    return out


def shift_pair(r: int) -> Tuple[List[List[Pair]], List[List[Pair]]]:
    """(S, T): identity over a zero row, and the down-shift, both (r+1) x r."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    s = [[one if i == j else zero for j in range(r)] for i in range(r + 1)]
    t = [[one if i == j + 1 else zero for j in range(r)] for i in range(r + 1)]
    return s, t


# -- modular rank at the outside prime ----------------------------------------


def residue(re: Fraction, im: Fraction) -> int:
    """Image of re + i*im under i -> S_OUT modulo P_OUT."""
    out = 0
    for q, unit in ((re, 1), (im, S_OUT)):
        if q.denominator % P_OUT == 0:
            raise ArithmeticError(f"denominator {q.denominator} vanishes mod {P_OUT}")
        out += unit * (q.numerator % P_OUT) * pow(q.denominator, -1, P_OUT)
    return out % P_OUT


def rank_mod_p(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank over Z/P_OUT of a dense integer matrix (entries already reduced)."""
    m = np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % P_OUT
    rank = 0
    for c in range(ncols):
        if rank == m.shape[0]:
            break
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        m[[rank, pr]] = m[[pr, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), -1, P_OUT) % P_OUT
        below = m[rank + 1 :]
        hit = np.nonzero(below[:, c])[0]
        if hit.size:
            below[hit] = (below[hit] - np.outer(below[hit, c], m[rank])) % P_OUT
        rank += 1
    return rank


def matrix_rank_mod_p(m) -> int:
    rows = [[residue(re, im) for re, im in row] for row in matrix_pairs(m)]
    return rank_mod_p(rows, m.shape[1])


# -- pencil-reduce ---------------------------------------------------------


def check_pencil(A1, A2, P, Q, identity: bool, stabilizer: int) -> List[str]:
    """P*A1*Q = S, P*A2*Q = T, P and Q invertible, stabilizer dimension 1."""
    errors = []
    r = A1.shape[1]
    s, t = shift_pair(r)
    p_pairs, q_pairs = matrix_pairs(P), matrix_pairs(Q)
    for name, a, want in (("A1", A1, s), ("A2", A2, t)):
        if pair_matmul(pair_matmul(p_pairs, matrix_pairs(a)), q_pairs) != want:
            errors.append(f"P*{name}*Q is not the canonical {'S' if name == 'A1' else 'T'}")
    if P.shape != (r + 1, r + 1) or matrix_rank_mod_p(P) != r + 1:
        errors.append("P is not invertible")
    if Q.shape != (r, r) or matrix_rank_mod_p(Q) != r:
        errors.append("Q is not invertible")
    if not identity:
        errors.append("apply_gauge identity check returned False")
    # X*Ai + Ai*Y = 0 has the solution (I, -I), so the kernel has dimension
    # at least 1; a modular rank of num - 1 pins it at exactly 1
    n = r + 1
    num = n * n + r * r
    rows = []
    for a in (matrix_pairs(A1), matrix_pairs(A2)):
        for i in range(n):
            for j in range(r):
                row = [0] * num
                for l in range(n):
                    row[i * n + l] = (row[i * n + l] + residue(*a[l][j])) % P_OUT
                for l in range(r):
                    col = n * n + l * r + j
                    row[col] = (row[col] + residue(*a[i][l])) % P_OUT
                rows.append(row)
    if rank_mod_p(rows, num) != num - 1:
        errors.append(f"stabilizer rank mod {P_OUT} does not certify dimension 1")
    if stabilizer != 1:
        errors.append(f"stabilizer dimension {stabilizer}, expected 1")
    return errors


# -- curve-sections --------------------------------------------------------


def _monomials(num_vars: int, degree: int) -> List[Tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(num_vars), degree):
        mono = [0] * num_vars
        for v in combo:
            mono[v] += 1
        out.append(tuple(mono))
    return out


def ideal_dimension_mod_p(minors, k: int) -> int:
    """dim I_k spanned by the minors, as a rank modulo the outside prime."""
    r = minors[0].degree
    if k < r:
        return 0
    cols = {m: c for c, m in enumerate(_monomials(4, k))}
    rows = []
    for minor in minors:
        for shift in _monomials(4, k - r):
            row = [0] * len(cols)
            for mono, val in minor.coeffs.items():
                c = cols[tuple(a + b for a, b in zip(mono, shift))]
                row[c] = residue(val.re, val.im)
            rows.append(row)
    return rank_mod_p(rows, len(cols))


def predicted_ideal_dimension(r: int, k: int) -> int:
    """(r+1) C(k-r+3, 3) - r C(k-r+2, 3), from the length-one resolution."""
    return (r + 1) * comb(k - r + 3, 3) - r * comb(k - r + 2, 3) if k >= r else 0


def ideal_euler_characteristic(r: int, k: int) -> int:
    """chi(I_C(k)) = chi(O(k)) - (d k + 1 - g) for the degree-d genus-g curve."""
    d = r * (r + 1) // 2
    g = (r - 1) * (r - 2) * (2 * r + 3) // 6
    return (k + 1) * (k + 2) * (k + 3) // 6 - (d * k + 1 - g)


def check_curve(
    r: int,
    kmin: int,
    table_rows: Sequence[Tuple[int, int, int, int]],
    stable: bool,
    sections: int,
    sections_minus_1: int,
    fibers: Sequence[Tuple[int, Tuple[int, ...], bool]],
    minors,
) -> List[str]:
    """Cohomology, normal sections and slices of one r-curve against theory."""
    errors = []
    table = {kmin + i: row for i, row in enumerate(table_rows)}
    for k, (h0, h1, h2, h3) in table.items():
        if h0 - h1 + h2 - h3 != ideal_euler_characteristic(r, k):
            errors.append(f"cohomology row {k} breaks the Euler characteristic")
    for k in (r - 1, r - 2):
        if table.get(k) != (0, 0, 0, 0):
            errors.append(f"ideal cohomology does not vanish at twist {k}")
    if not stable:
        errors.append("ellia_stability_check returned False")
    if sections != 2 * r * (r + 1):
        errors.append(f"h0(N) = {sections}, expected {2 * r * (r + 1)}")
    if sections_minus_1 != r * (r + 1):
        errors.append(f"h0(N(-1)) = {sections_minus_1}, expected {r * (r + 1)}")
    d = r * (r + 1) // 2
    display = tuple(min((k + 1) * (k + 2) // 2, d) for k in range(r + 3))
    for length, hilbert, stratum in fibers:
        if length != d:
            errors.append(f"fiber length {length}, expected {d}")
        if tuple(hilbert) != display:
            errors.append(f"fiber Hilbert function {tuple(hilbert)}, expected {display}")
        if not stratum:
            errors.append("stratum_check returned False")
    k = r + 2
    got = ideal_dimension_mod_p(minors, k)
    if got != predicted_ideal_dimension(r, k):
        errors.append(f"dim I_{k} mod {P_OUT} is {got}, expected {predicted_ideal_dimension(r, k)}")
    return errors


# -- metric-scan -------------------------------------------------------------


def check_frame(frame) -> List[str]:
    """I^2 = J^2 = K^2 = IJK = -1 on the frame's real operator matrices."""
    errors = []
    I, J, K = frame.I, frame.J, frame.K
    minus_one = -np.eye(I.shape[0])
    for name, m in (("I^2", I @ I), ("J^2", J @ J), ("K^2", K @ K), ("IJK", I @ J @ K)):
        if not np.allclose(m, minus_one, rtol=0, atol=1e-12):
            errors.append(f"{name} != -1")
    return errors


def check_constancy(grams: Sequence[np.ndarray], report) -> List[str]:
    """Every frame's gram agrees, here and in the library's frames_report."""
    errors = []
    base = grams[0]
    scale = max(1.0, float(np.abs(base).max()))
    deviation = max(float(np.abs(g - base).max()) for g in grams) / scale
    if deviation >= 1e-6:
        errors.append(f"grams differ by {deviation:.2e} relative")
    if not report.passed or report.max_relative_deviation >= 1e-6:
        errors.append(f"frames_report deviation {report.max_relative_deviation:.2e}")
    if not report.signature_constant:
        errors.append(f"signatures differ: {sorted(set(report.signatures))}")
    if report.max_fit_residual >= 1e-8:
        errors.append(f"fit residual {report.max_fit_residual:.2e}")
    if report.max_quaternion_residual >= 1e-8:
        errors.append(f"quaternion residual {report.max_quaternion_residual:.2e}")
    return errors


def check_control(report) -> List[str]:
    """Charts read in their raw gauge must break constancy."""
    return [] if not report.passed else ["raw-gauge control passed constancy"]


# -- rational-split ----------------------------------------------------------


def conormal_sections_mod_p(forms, m: int) -> int:
    """Kernel of (g_a) -> (sum_a g_a ds f_a, sum_a g_a dt f_a), degree m-d inputs.

    Forms are coefficient tuples, entry k multiplying s^(d-k) t^k.  A modular
    kernel is never smaller than the exact one.
    """
    d = len(forms[0]) - 1
    e = m - d
    if e < 0:
        return 0
    f = [[residue(c.re, c.im) for c in form] for form in forms]
    ds = [[(d - k) * row[k] % P_OUT for k in range(d)] for row in f]
    dt = [[(k + 1) * row[k + 1] % P_OUT for k in range(d)] for row in f]
    columns = []
    for a in range(4):
        for k in range(e + 1):
            # times the input monomial s^(e-k) t^k: coefficients shift by k
            lead, tail = [0] * k, [0] * (e - k)
            columns.append(lead + ds[a] + tail + lead + dt[a] + tail)
    rows = [list(r) for r in zip(*columns)]
    return len(columns) - rank_mod_p(rows, len(columns))


def check_rational(forms, a: int, b: int, rr: bool) -> List[str]:
    """Splitting (a, b) of a degree-d map against degree sum and conormal counts."""
    errors = []
    d = len(forms[0]) - 1
    if a > b:
        errors.append(f"splitting ({a}, {b}) is not ordered")
    if a + b != 4 * d - 2:
        errors.append(f"a + b = {a + b}, expected {4 * d - 2}")
    if not rr:
        errors.append("Riemann-Roch cross-check failed")
    for m in (a - 1, a):
        want = max(m - a + 1, 0) + max(m - b + 1, 0)
        got = conormal_sections_mod_p(forms, m)
        if got != want:
            errors.append(f"conormal sections at twist {m}: {got} mod {P_OUT}, expected {want}")
    return errors
