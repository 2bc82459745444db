"""Exact fallbacks behind the modular rank shortcuts.

Every modular shortcut goes through `modp.ranks_mod`, which tries the
primes of `modp.PRIMES` in turn.  With no primes at all, each caller must
reach the same answer by exact elimination alone.
"""

import pytest

from hkcurves.acm_curve import ACMCurve, predicted_ideal_dimension, random_sigma_curve
from hkcurves.cohomology import normal_sections
from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.ideals import GradedIdeal
from hkcurves.pencil import canonical_pair, pair_stabilizer_dimension, random_injective_pencil


def no_primes(monkeypatch):
    monkeypatch.setattr(modp, "PRIMES", ())


def test_ideal_dimensions_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in range(3)]
    window = range(0, 7)
    default = [[c.ideal.dimension(k) for k in window] for c in curves]
    no_primes(monkeypatch)
    exact = [[ACMCurve(c.matrix).ideal.dimension(k) for k in window] for c in curves]
    assert exact == default
    assert default[0] == [predicted_ideal_dimension(2, k) for k in window]


def test_pair_stabilizer_dimension_without_primes(monkeypatch):
    S, T = canonical_pair(2)
    pairs = [random_injective_pencil(r, 40 + r) for r in (1, 2, 3)]
    # (S, S) is not injective; its stabilizer is larger than the line (zI, -zI)
    pairs += [(S, T), (S, S)]
    default = [pair_stabilizer_dimension(A1, A2) for A1, A2 in pairs]
    no_primes(monkeypatch)
    assert [pair_stabilizer_dimension(A1, A2) for A1, A2 in pairs] == default
    assert default[:4] == [1, 1, 1, 1] and default[4] > 1


def test_normal_sections_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in (7, 8)]
    default = [(normal_sections(c, 0), normal_sections(c, -1)) for c in curves]
    no_primes(monkeypatch)
    fresh = [ACMCurve(c.matrix) for c in curves]
    assert [(normal_sections(c, 0), normal_sections(c, -1)) for c in fresh] == default
    assert default == [(12, 6), (12, 6)]


def test_wrong_certified_bound_raises(monkeypatch):
    curve = random_sigma_curve(2, 0)
    ideal = GradedIdeal([m for m in curve.minors if not m.is_zero()])
    # the three generators times x0 already have three distinct lead columns
    ideal.set_certified_bound(lambda k: 1)
    no_primes(monkeypatch)
    with pytest.raises(ArithmeticError, match="exceeds certified bound"):
        ideal.dimension(3)
