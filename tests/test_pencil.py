"""Pencil injectivity and the exact reduction to the shift pair."""

import math
from fractions import Fraction

import pytest

from hkcurves import cli, pencil
from hkcurves.exact_algebra import modp, polys
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import UniPoly
from hkcurves.exact_algebra.scalars import GaussianRational
from hkcurves.pencil import (
    apply_gauge,
    canonical_pair,
    is_injective_pencil,
    kronecker_reduce,
    pair_stabilizer_dimension,
    pencil_minors,
    random_injective_pencil,
)

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def test_canonical_pair_shapes_and_entries():
    S, T = canonical_pair(3)
    assert S.shape == (4, 3) and T.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert S[i, j] == (ONE if i == j else ZERO)
            assert T[i, j] == (ONE if i == j + 1 else ZERO)


def test_canonical_pair_rejects_r_zero():
    with pytest.raises(ValueError):
        canonical_pair(0)


def test_canonical_pair_is_built_once_per_r():
    assert canonical_pair(3) is canonical_pair(3)
    assert canonical_pair(2) is not canonical_pair(3)


def test_canonical_pair_is_injective():
    for r in (1, 2, 3, 4):
        S, T = canonical_pair(r)
        assert is_injective_pencil(S, T).ok


def test_injectivity_failure_produces_witness():
    # A1 singular at lambda = 0: members A1 + lambda*A2 with A1 rank-deficient
    A1 = ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    A2 = ExactMatrix([[ZERO, ZERO], [ZERO, ONE], [ONE, ZERO]])
    report = is_injective_pencil(A1, A2)
    assert not report.ok
    assert report.witness is not None
    mu, lam = report.witness
    member = A1.scale(mu) + A2.scale(lam)
    assert member.rank() < 2


def test_injectivity_when_every_prime_divides_the_leading_coefficient():
    # A1 + lambda*A2 = (1 + P*lambda) [1, 2]^T drops rank at lambda = -1/P.
    # Mod each prime of P both minors are constants, coprime, but no minor
    # keeps its leading coefficient there, so no prime may decide
    P = math.prod(p for p, _ in modp.PRIMES)
    A1 = ExactMatrix([[ONE], [GaussianRational(2)]])
    A2 = A1.scale(GaussianRational(P))
    report = is_injective_pencil(A1, A2)
    assert not report.ok
    assert report.witness == (ONE, GaussianRational(Fraction(-1, P)))


def test_reduce_rejects_non_injective():
    A1 = ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    A2 = ExactMatrix([[ZERO, ZERO], [ZERO, ONE], [ONE, ZERO]])
    S, T = canonical_pair(3)
    for pair in [(A1, A2), (S, S), (T, T), (S, S.scale(GaussianRational(2)))]:
        with pytest.raises(ValueError, match="drops rank at"):
            kronecker_reduce(*pair)
    # A1 + lambda*A2 has full rank for every finite lambda, but A2 alone does not
    C1, _ = canonical_pair(2)
    C2 = ExactMatrix([[ZERO, ZERO], [ZERO, ZERO], [ZERO, ONE]])
    with pytest.raises(ValueError, match=r"drops rank at \[0:1\]"):
        kronecker_reduce(C1, C2)
    # the minors share the factor lambda^2 - 2, which has no root in Q(i)
    B1 = ExactMatrix([[ZERO, GaussianRational(2)], [ONE, ZERO], [ZERO, ZERO]])
    B2 = ExactMatrix([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]])
    with pytest.raises(ValueError, match="vanishes; cannot reduce"):
        kronecker_reduce(B1, B2)



def test_pencil_dropping_at_two_points_gets_a_witness():
    # A1 + lambda*A2 = [[lambda, 0], [0, lambda - 1], [0, 0]] drops rank at
    # lambda = 0 and lambda = 1: the minors' gcd lambda^2 - lambda has two
    # distinct roots, and the first numeric root names the point
    A1 = ExactMatrix([[ZERO, ZERO], [ZERO, -ONE], [ZERO, ZERO]])
    A2 = ExactMatrix([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]])
    report = is_injective_pencil(A1, A2)
    assert report == pencil.InjectivityReport(False, (ONE, ONE), UniPoly([0, -1, 1]))
    assert (A1 + A2).rank() < 2
    with pytest.raises(ValueError, match=r"^pencil drops rank at \[1:1\]; cannot reduce$"):
        kronecker_reduce(A1, A2)

def test_reduction_identity_seeded():
    for seed in range(12):
        r = 1 + seed % 4
        A1, A2 = random_injective_pencil(r, seed)
        red = kronecker_reduce(A1, A2)
        assert red.P.shape == (r + 1, r + 1)
        assert red.Q.shape == (r, r)
        assert not red.P.det().is_zero()
        assert not red.Q.det().is_zero()
        assert apply_gauge(A1, A2, red.P, red.Q) == canonical_pair(r)


def test_shift_gauge_check_rejects_a_wrong_gauge():
    # P from another pencil's minor table; then P from the right table with
    # A2 moved by P^-1 E, so that P*A1 passes and P*A2 = T*M + E fails only
    # in row 0 of E, or only in a later row
    r = 3
    A1, A2 = random_injective_pencil(r, 7)
    B1, B2 = random_injective_pencil(r, 8)
    P_inv = kronecker_reduce(A1, A2).P.inverse()
    cases = [(pencil._minor_table(B1, B2), A2)]
    for row in (0, 2):
        E = [[GaussianRational(1, 1) if (i, j) == (row, 1) else ZERO for j in range(r)] for i in range(r + 1)]
        cases.append((pencil._minor_table(A1, A2), A2 + P_inv @ ExactMatrix(E)))
    for (T, den), moved in cases:
        with pytest.raises(AssertionError, match="verification failed"):
            pencil._shift_gauge(A1, moved, r, T, den)


def _laplace_calls(monkeypatch):
    """The list that each `polys.laplace` call appends its input shape to."""
    calls = []
    laplace = polys.laplace

    def spy(X):
        calls.append(X.shape)
        return laplace(X)

    monkeypatch.setattr(polys, "laplace", spy)
    return calls


def test_one_laplace_pass_per_pencil(monkeypatch):
    # the minor table is built once and read by every step: the injectivity
    # test, the gauge, and the wording of a failed reduction; the cache of
    # the last table is cleared before each run, so each builds it once
    calls = _laplace_calls(monkeypatch)
    r = 3
    A1, A2 = random_injective_pencil(r, 11)
    # the draw's injectivity test built the table the reduction reads
    calls.clear()
    assert kronecker_reduce(A1, A2).r == r
    assert calls == []
    for run in (lambda: is_injective_pencil(A1, A2).ok, lambda: kronecker_reduce(A1, A2).r, lambda: pencil_minors(A1, A2)):
        pencil._form_minor_table.cache_clear()
        calls.clear()
        assert run()
        assert len(calls) == 1
    # A1 + lambda*A1 drops rank at lambda = -1 only, where the gcd (1 + lambda)^3 vanishes
    pencil._form_minor_table.cache_clear()
    calls.clear()
    report = is_injective_pencil(A1, A1)
    assert len(calls) == 1
    cube = [GaussianRational(c) for c in (1, 3, 3, 1)]
    assert report == pencil.InjectivityReport(False, (ONE, GaussianRational(-1)), UniPoly(cube))
    pencil._form_minor_table.cache_clear()
    calls.clear()
    with pytest.raises(ValueError, match=r"^pencil drops rank at \[1:-1\]; cannot reduce$"):
        kronecker_reduce(A1, A1)
    assert len(calls) == 1


def test_kronecker_command_makes_one_laplace_pass_per_item(monkeypatch, capsys):
    # each item draws its pencil, accepted at the first draw, and reduces it
    # from the table that draw built
    calls = _laplace_calls(monkeypatch)
    assert cli.main(["kronecker", "--r", "3", "--count", "2", "--seed", "0"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(calls) == 2


def test_reduction_of_canonical_pair_is_gauge():
    # reducing (S, T) itself must produce an exact stabilizing gauge
    for r in (1, 2, 3):
        S, T = canonical_pair(r)
        red = kronecker_reduce(S, T)
        assert apply_gauge(S, T, red.P, red.Q) == (S, T)


def test_stabilizer_dimension_canonical():
    for r in (1, 2, 3, 4):
        assert pair_stabilizer_dimension(*canonical_pair(r)) == 1


def test_stabilizer_dimension_gauge_invariant():
    for seed in range(6):
        r = 1 + seed % 3
        A1, A2 = random_injective_pencil(r, 100 + seed)
        assert pair_stabilizer_dimension(A1, A2) == 1


def test_pencil_minors_are_degree_r_forms():
    r = 2
    A1, A2 = random_injective_pencil(r, 5)
    minors = pencil_minors(A1, A2)
    assert len(minors) == r + 1
    for m in minors:
        assert m.degree == r


def test_random_injective_pencil_deterministic():
    a = random_injective_pencil(3, 42)
    b = random_injective_pencil(3, 42)
    assert a[0] == b[0] and a[1] == b[1]
