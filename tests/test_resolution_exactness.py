"""A certified resolution is exact, and its certificate ranks only k = 2r-1.

By the Buchsbaum-Eisenbud criterion the resolution by the matrix and its
dual are exact once the minors have no common factor.  A common factor of
degree e >= 1 already cuts dim I_(2r-e) below its bound, and the deficit
never decreases with k.  So `certify_resolution` decides dim I_(2r-1) alone
when it matches, and `ideal_cohomology` reads the syzygy rank rho in closed
form.
"""

import random

import pytest

from hkcurves.acm_curve import (
    ACMCurve,
    LinearMatrix,
    predicted_ideal_dimension,
    random_real_curve,
    random_sigma_curve,
)
from hkcurves.cohomology import ideal_cohomology, normal_sheaf_report
from hkcurves.exact_algebra import ideals, modp
from hkcurves.exact_algebra.ideals import GradedIdeal, sparse_row_rank
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import monomial_count
from hkcurves.exact_algebra.scalars import GaussianRational, random_gaussian_rows

from suites import entry_forms, form_ideal, graded_matrix, integer_row


def _syzygy_rank(curve, k):
    """The rank the closed form replaced, by the old route: graded_matrix of
    the transposed entries on degree r-k-4 vectors.  Its kernel holds
    minors * h for the degree -k-4 monomials h, so a prime whose rank meets
    cols - C(-k-4) pins it; else exact elimination decides."""
    r = curve.r
    source_degree = r - k - 4
    if source_degree < 0:
        return 0
    phi_t = [list(column) for column in zip(*entry_forms(curve.coeffs))]
    matrix = graded_matrix(phi_t, source_degree, 4)
    rows = [integer_row(enumerate(row)) for row in matrix.data]
    bound = matrix.cols - monomial_count(4, -k - 4)
    if modp.sparse_rank_certificate(bound, lambda p, s: modp.rows_mod(rows, matrix.cols, p, s)):
        return bound
    # a column order changes no rank; the reversed one eliminates faster here
    last = matrix.cols - 1
    return sparse_row_rank([[(last - c, a, b) for c, a, b in reversed(row)] for row in rows])


def _closed_form_rho(r, k):
    return (r + 1) * monomial_count(4, r - k - 4) - monomial_count(4, -k - 4)


@pytest.mark.parametrize(
    "r, primes",
    [(1, True), (2, True), (3, True), (1, False), (2, False)],
    ids=["r1", "r2", "r3", "r1-exact", "r2-exact"],
)
def test_syzygy_rank_of_the_old_route_is_the_closed_form(r, primes, monkeypatch):
    curves = [random_sigma_curve(r, 0), random_real_curve(r, 0)]
    if not primes:
        # the exact echelon decides every rank
        monkeypatch.setattr(modp, "PRIMES", ())
    for curve in curves:
        for k in range(-9, r + 3):
            rho = _syzygy_rank(curve, k)
            assert rho == _closed_form_rho(r, k), (r, k)
            _, _, h2, h3 = ideal_cohomology(curve, k)
            assert (h2, h3) == (
                r * monomial_count(4, r - k - 3) - rho,
                (r + 1) * monomial_count(4, r - k - 4) - rho,
            ), (r, k)


X0 = (1, 0, 0, 0)
# a linear form that is no multiple of a coordinate
MIXED = (1, -2, GaussianRational(1, 1), 3)


def _common_factor_matrix(r, ells, seed):
    """Random (r+1) x r linear matrix whose column j < len(ells) is
    c_ij * ells[j], so that every maximal minor has the factor prod(ells)."""
    rng = random.Random(seed)
    c = random_gaussian_rows(rng, len(ells), r + 1, 3)
    coeffs = []
    for v in range(4):
        rows = [list(row) for row in random_gaussian_rows(rng, r + 1, r, 3)]
        for j, ell in enumerate(ells):
            for i in range(r + 1):
                rows[i][j] = c[j][i] * ell[v]
        coeffs.append(ExactMatrix(rows))
    return LinearMatrix(r, *coeffs)


@pytest.mark.parametrize("ell", [X0, MIXED], ids=["x0", "mixed"])
@pytest.mark.parametrize("r", [2, 3])
def test_common_factor_fails_by_degree_2r_minus_1(r, ell):
    matrix = _common_factor_matrix(r, (ell,), seed=r)
    cert = ACMCurve(matrix).certificate()
    assert cert.cofactor_identity
    assert not cert.ok
    assert cert.mismatches[0][0] <= 2 * r - 1
    # the failing document keeps its sweep through 2r+2
    fresh = form_ideal([m for m in ACMCurve(matrix).minors if not m.is_zero()])
    assert cert.dimensions == tuple(fresh.dimension(k) for k in range(2 * r + 3))


# the common factor of every minor: x0, a mixed form, or both (degree e = 2)
FACTORS = [(2, (X0,)), (3, (X0,)), (2, (MIXED,)), (3, (MIXED,)), (3, (X0, MIXED))]
FACTOR_IDS = ["x0-r2", "x0-r3", "mixed-r2", "mixed-r3", "two-columns-r3"]


def _fresh_ideal(matrix):
    return form_ideal([m for m in ACMCurve(matrix).minors if not m.is_zero()])


@pytest.mark.parametrize("r, ells", FACTORS, ids=FACTOR_IDS)
def test_common_factor_deficits_never_decrease(r, ells):
    # delta_k = expected - dim I_k is the Hilbert function of ker m / im phi,
    # on which a linear form is a nonzerodivisor (depth of coker phi >= 3)
    ideal = _fresh_ideal(_common_factor_matrix(r, ells, seed=r))
    deficits = [predicted_ideal_dimension(r, k) - ideal.dimension(k) for k in range(2 * r + 3)]
    assert all(a <= b for a, b in zip(deficits, deficits[1:])), deficits
    first = next(k for k, d in enumerate(deficits) if d)
    assert first <= 2 * r - len(ells), deficits
    assert deficits[2 * r - 1] > 0, deficits


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_passing_certificate_builds_no_level_above_2r_minus_1(r, monkeypatch):
    # the one level is ranked mod p, and with no primes, exactly; T is
    # reported singular, since a curve that misses L0 ranks no level
    matrix = random_sigma_curve(r, 1).matrix
    monkeypatch.setattr(ACMCurve, "base_line_rank", property(lambda curve: curve.r))
    full_dims = tuple(_fresh_ideal(matrix).dimension(k) for k in range(2 * r + 3))
    levels = []
    for name in ("dimension", "_build", "_row_stream"):
        method = getattr(GradedIdeal, name)

        def recording(ideal, k, *args, _method=method):
            levels.append(k)
            return _method(ideal, k, *args)

        monkeypatch.setattr(GradedIdeal, name, recording)
    for primes in (modp.PRIMES, ()):
        monkeypatch.setattr(modp, "PRIMES", primes)
        levels.clear()
        cert = ACMCurve(matrix).certificate()
        assert cert.ok
        assert set(levels) == {2 * r - 1}, primes
        assert cert.dimensions == full_dims


@pytest.mark.parametrize("r", [2, 3])
def test_normal_sections_rank_no_level_after_the_certificate(r, monkeypatch):
    curve = ACMCurve(random_sigma_curve(r, 1).matrix)
    assert curve.certificate().ok
    bounds = []
    certificate = modp.sparse_rank_certificate

    def counting(bound, level):
        bounds.append(bound)
        return certificate(bound, level)

    monkeypatch.setattr(modp, "sparse_rank_certificate", counting)
    monkeypatch.setattr(ideals, "sparse_rank_certificate", counting)
    assert normal_sheaf_report(curve).ok
    assert bounds == []


@pytest.mark.parametrize(
    "r, ells",
    [(2, ()), (3, ()), (2, (X0,)), (3, (X0,))],
    ids=["passing-r2", "passing-r3", "failing-r2", "failing-r3"],
)
def test_exact_rank_with_reversed_columns_is_the_echelon_length(r, ells, monkeypatch):
    matrix = _common_factor_matrix(r, ells, seed=r)
    monkeypatch.setattr(modp, "PRIMES", ())
    assert ACMCurve(matrix).certificate().ok == (not ells)
    ranked, built = _fresh_ideal(matrix), _fresh_ideal(matrix)
    for k in range(2 * r + 3):
        assert ranked.dimension(k, predicted_ideal_dimension(r, k)) == len(built._build(k)), k
