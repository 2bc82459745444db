"""Exact fallbacks behind the modular rank shortcuts.

Every modular shortcut goes through `modp.reductions`, which tries the
primes of `modp.PRIMES` in turn and skips a prime whose reduction raises
`BadPrime`.  With no primes at all, and again with every prime bad, each
caller must reach the same answer by exact elimination alone.
"""

import pytest

from hkcurves.acm_curve import ACMCurve, predicted_ideal_dimension, random_sigma_curve
from hkcurves import cohomology
from hkcurves.cohomology import normal_sections
from hkcurves.exact_algebra import modp
from hkcurves.exact_algebra.ideals import GradedIdeal
from hkcurves.pencil import canonical_pair, pair_stabilizer_dimension, random_injective_pencil


def no_primes(monkeypatch):
    """Yields twice with no usable prime: `modp.PRIMES` empty, then every
    prime raising `BadPrime` in `modp.rows_mod`."""
    with monkeypatch.context() as patch:
        patch.setattr(modp, "PRIMES", ())
        yield "no primes"
    refused = []

    def bad_prime(rows, ncols, p, s):
        refused.append(p)
        raise modp.BadPrime(f"forced for {p}")

    with monkeypatch.context() as patch:
        patch.setattr(modp, "rows_mod", bad_prime)
        yield "every prime bad"
    assert refused, "no prime was tried"


def test_ideal_dimensions_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in range(3)]
    window = range(0, 7)
    default = [[c.ideal.dimension(k) for k in window] for c in curves]
    for mode in no_primes(monkeypatch):
        exact = [[ACMCurve(c.matrix).ideal.dimension(k) for k in window] for c in curves]
        assert exact == default, mode
    assert default[0] == [predicted_ideal_dimension(2, k) for k in window]


def test_pair_stabilizer_dimension_without_primes(monkeypatch):
    S, T = canonical_pair(2)
    pairs = [random_injective_pencil(r, 40 + r) for r in (1, 2, 3)]
    # (S, S) is not injective; its stabilizer is larger than the line (zI, -zI)
    pairs += [(S, T), (S, S)]
    default = [pair_stabilizer_dimension(A1, A2) for A1, A2 in pairs]
    for mode in no_primes(monkeypatch):
        assert [pair_stabilizer_dimension(A1, A2) for A1, A2 in pairs] == default, mode
    assert default[:4] == [1, 1, 1, 1] and default[4] > 1


def test_normal_sections_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in (7, 8)]
    sextic = random_sigma_curve(3, 7)
    # one fresh copy of the r = 3 curve per mode, certified with the primes:
    # its exact certificate alone takes ~40 s, and the exact dimension path
    # is tested above
    sextics = [ACMCurve(sextic.matrix) for _ in range(2)]
    for copy in sextics:
        copy.certificate()
    exact_ranks = []
    sparse_row_rank = cohomology.sparse_row_rank

    def counting_rank(rows):
        exact_ranks.append(len(rows))
        return sparse_row_rank(rows)

    monkeypatch.setattr(cohomology, "sparse_row_rank", counting_rank)
    default = [(normal_sections(c, 0), normal_sections(c, -1)) for c in curves + [sextic]]
    assert exact_ranks == [], "a prime should pin every count"
    for mode in no_primes(monkeypatch):
        exact_ranks.clear()
        fresh = [ACMCurve(c.matrix) for c in curves] + [sextics.pop()]
        assert [(normal_sections(c, 0), normal_sections(c, -1)) for c in fresh] == default, mode
        assert len(exact_ranks) >= 2 * len(fresh), mode
    assert default == [(12, 6), (12, 6), (24, 12)]


def test_wrong_certified_bound_raises(monkeypatch):
    curve = random_sigma_curve(2, 0)
    gens = [m for m in curve.minors if not m.is_zero()]
    # one below the true dimension: the default primes reach bound + 1
    for k in range(2, 6):
        ideal = GradedIdeal(gens)
        ideal.set_certified_bound(lambda k: predicted_ideal_dimension(2, k) - 1)
        with pytest.raises(ArithmeticError, match="exceeds certified bound"):
            ideal.dimension(k)
    ideal = GradedIdeal(gens)
    # the three generators times x0 already have three distinct lead columns
    ideal.set_certified_bound(lambda k: 1)
    monkeypatch.setattr(modp, "PRIMES", ())
    with pytest.raises(ArithmeticError, match="exceeds certified bound"):
        ideal.dimension(3)
