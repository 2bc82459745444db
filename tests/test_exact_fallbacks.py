"""Exact fallbacks behind the modular rank shortcuts.

Every modular shortcut is a rank through `ideals.certified_rank`, whose
`modp.sparse_rank_certificate` tries the primes of `modp.PRIMES` in turn:
graded levels, the pencil stabilizer, the base-line matrix T of pencil
injectivity, and the band matrices of rational maps.  With no primes at
all, and again with every prime reducing each row to zero, each caller must
reach the same answer by exact elimination alone.
"""

import math

import numpy as np
import pytest

from hkcurves.acm_curve import ACMCurve, predicted_ideal_dimension, random_sigma_curve
from hkcurves import cohomology
from hkcurves.cohomology import cohomology_table, normal_sections
from hkcurves.exact_algebra import ideals, modp, polys
from hkcurves.exact_algebra.ideals import certified_rank
from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import monomial_count
from hkcurves.exact_algebra.scalars import ONE, ZERO, GaussianRational
from hkcurves.pencil import canonical_pair, is_injective_pencil, pair_stabilizer_dimension, random_injective_pencil
from hkcurves.rational_curve import (
    RationalCurveMap,
    conormal_counts,
    normal_splitting_type,
    normal_twisted_counts,
    random_rational_map,
    riemann_roch_consistent,
    twisted_cubic_map,
    validate_map,
)
from suites import form_ideal, mat_scale, splitting_pair
from test_rational_curve import BASE_POINT_MAP, CUSP_MAP, STANDARD_CONIC, UNBALANCED_QUARTIC, UNBALANCED_SEXTIC


def no_primes(monkeypatch):
    """Yields twice with no usable prime: `modp.PRIMES` empty, then every
    prime reducing the rows to zeros in `modp.rows_mod`."""
    with monkeypatch.context() as patch:
        patch.setattr(modp, "PRIMES", ())
        yield "no primes"
    refused = []

    def zero_rows(rows, ncols, p, s):
        refused.append(p)
        return np.zeros((len(rows), ncols), dtype=np.int64)

    with monkeypatch.context() as patch:
        patch.setattr(modp, "rows_mod", zero_rows)
        yield "every prime zero"
    assert refused, "no prime was tried"


def test_ideal_dimensions_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in range(3)]
    window = range(0, 7)
    default = [[c.ideal.dimension(k) for k in window] for c in curves]
    for mode in no_primes(monkeypatch):
        # fresh ideals, ranked against the proven bound
        exact = [
            [ACMCurve(c.matrix).ideal.dimension(k, predicted_ideal_dimension(2, k)) for k in window]
            for c in curves
        ]
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


def scaled_by_every_prime(matrices):
    """The matrices times the product of `modp.PRIMES`: the Gaussian-integer
    rows built from them reduce to zero at every prime."""
    scale = math.prod(p for p, _ in modp.PRIMES)
    return tuple(mat_scale(A, scale) for A in matrices)


def test_pair_stabilizer_dimension_when_primes_divide_the_scale(monkeypatch):
    exact_ranks = []
    sparse_echelon = ideals.sparse_echelon

    def counting_echelon(rows, target=None):
        exact_ranks.append(len(rows))
        return sparse_echelon(rows, target)

    monkeypatch.setattr(ideals, "sparse_echelon", counting_echelon)
    pairs = [random_injective_pencil(r, 40 + r) for r in (1, 2, 3)] + [canonical_pair(2)]
    assert [pair_stabilizer_dimension(A1, A2) for A1, A2 in pairs] == [1] * len(pairs)
    assert exact_ranks == [], "a prime should pin every default rank"
    scaled = [scaled_by_every_prime(pair) for pair in pairs]
    assert [pair_stabilizer_dimension(A1, A2) for A1, A2 in scaled] == [1] * len(pairs)
    assert len(exact_ranks) == len(pairs)


def test_injectivity_reports_on_the_exact_gcd_route(monkeypatch):
    # a prime ranks T invertible for every injective pencil here; with no
    # usable prime, and with every minor scaled by every prime, the exact
    # echelon of T must give the same reports, and a pencil that drops rank
    # takes the same exact gcd for its report
    exact_ranks, exact_gcds = [], []
    uni_gcd, sparse_echelon = polys.uni_gcd, ideals.sparse_echelon

    def counting_gcd(polys):
        exact_gcds.append(len(polys))
        return uni_gcd(polys)

    def counting_echelon(rows, target=None):
        exact_ranks.append(len(rows))
        return sparse_echelon(rows, target)

    monkeypatch.setattr(polys, "uni_gcd", counting_gcd)
    monkeypatch.setattr(ideals, "sparse_echelon", counting_echelon)
    S, T = canonical_pair(2)
    B1 = ExactMatrix([[ZERO, GaussianRational(2)], [ONE, ZERO], [ZERO, ZERO]])
    B2 = ExactMatrix([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]])
    C1 = ExactMatrix([[ONE, ZERO], [ZERO, ZERO], [ZERO, ZERO]])
    C2 = ExactMatrix([[ZERO, ZERO], [ZERO, ONE], [ONE, ZERO]])
    injective = [random_injective_pencil(r, 40 + r) for r in (1, 2, 3)] + [(S, T)]
    dropping = [(B1, B2), (C1, C2), (S, S)]
    default = [is_injective_pencil(A1, A2) for A1, A2 in injective + dropping]
    assert [report.ok for report in default] == [True] * 4 + [False] * 3
    assert default[4].minor_gcd.degree == 2 and default[5].witness == (ONE, ZERO)
    assert default[6].witness == (ONE, -ONE)
    gcds = list(exact_gcds)
    assert gcds, "a pencil that drops at a finite point takes the exact gcd"
    exact_ranks.clear()
    exact_gcds.clear()
    assert [is_injective_pencil(A1, A2) for A1, A2 in injective] == default[:4]
    assert exact_ranks == [] and exact_gcds == [], "a prime should rank every injective pencil's T"
    for mode in no_primes(monkeypatch):
        exact_ranks.clear()
        exact_gcds.clear()
        assert [is_injective_pencil(A1, A2) for A1, A2 in injective] == default[:4], mode
        assert exact_ranks == [A1.cols + 1 for A1, _ in injective] and exact_gcds == [], mode
        assert [is_injective_pencil(A1, A2) for A1, A2 in dropping] == default[4:], mode
        assert exact_gcds == gcds, mode
    exact_ranks.clear()
    scaled = [scaled_by_every_prime(pair) for pair in injective]
    assert [is_injective_pencil(A1, A2) for A1, A2 in scaled] == default[: len(injective)]
    assert len(exact_ranks) == len(injective)


def test_sections_and_cohomology_when_primes_divide_the_scale(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in (0, 7)]
    twists = range(-6, 5)
    rank_calls = count_rank_calls(monkeypatch)

    def counts(curve):
        curve.certificate()
        rank_calls.clear()
        sections = (normal_sections(curve, 0), normal_sections(curve, -1))
        rows = cohomology_table(curve, twists[0], twists[-1]).rows
        assert rank_calls == [], "sections and the cohomology table take no rank"
        return sections, rows

    default = [counts(c) for c in curves]
    scaled = [ACMCurve(scaled_by_every_prime(c.coeffs)) for c in curves]
    assert [counts(c) for c in scaled] == default
    assert [sections for sections, _ in default] == [(12, 6), (12, 6)]


def test_normal_sections_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in (7, 8)] + [random_sigma_curve(3, 7)]
    rank_calls = count_rank_calls(monkeypatch)

    def counts(curve):
        curve.certificate()
        rank_calls.clear()
        sections = (normal_sections(curve, 0), normal_sections(curve, -1))
        assert rank_calls == [], "normal sections take no rank"
        return sections

    default = [counts(c) for c in curves]
    for mode in no_primes(monkeypatch):
        # fresh copies, so that the certificate ranks its level exactly
        assert [counts(ACMCurve(c.matrix)) for c in curves] == default, mode
    assert default == [(12, 6), (12, 6), (24, 12)]


def count_rank_calls(monkeypatch):
    """List that grows by one per exact rank (`ExactMatrix.rank`, the
    `ideals.sparse_echelon` behind every graded level, and `sparse_row_rank`
    as `cohomology` imports it) or modular one (`modp.rank_mod`, and
    `sparse_rank_certificate` as `ideals` imports it).

    It also reports the base-line matrix T singular, so that certificates
    take their level route: a curve that misses L0 ranks no level."""
    calls = []
    monkeypatch.setattr(ACMCurve, "base_line_rank", property(lambda curve: curve.r))

    def counting(name, rank):
        def counted(*args, **kwargs):
            calls.append(name)
            return rank(*args, **kwargs)

        return counted

    for owner, name in (
        (ExactMatrix, "rank"),
        (ideals, "sparse_echelon"),
        (cohomology, "sparse_row_rank"),
        (modp, "rank_mod"),
        (ideals, "sparse_rank_certificate"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


def test_rational_curve_without_primes(monkeypatch):
    # one exact echelon per rank the primes leave undecided
    exact_ranks = []
    sparse_echelon = ideals.sparse_echelon

    def counting_echelon(rows, target=None):
        exact_ranks.append(len(rows))
        return sparse_echelon(rows, target)

    monkeypatch.setattr(ideals, "sparse_echelon", counting_echelon)
    balanced = [twisted_cubic_map()]
    balanced += [random_rational_map(d, s) for d in range(3, 6) for s in (0, 1)]
    conics = [STANDARD_CONIC] + [random_rational_map(2, s) for s in (0, 1)]

    def splitting(maps):
        out = []
        for rmap in maps:
            split = normal_splitting_type(rmap)
            out.append((splitting_pair(split), riemann_roch_consistent(rmap, split)))
        return out

    default = splitting(balanced)
    assert exact_ranks == [], "a prime should pin every rank of a balanced map"
    # conics split as (2, 4): their twists in [2, 4) miss the bound
    default += splitting(conics)
    assert exact_ranks
    flawed_maps = (BASE_POINT_MAP, CUSP_MAP)
    flawed = [validate_map(m) for m in flawed_maps]
    for mode in no_primes(monkeypatch):
        exact_ranks.clear()
        fresh = [RationalCurveMap(m.forms) for m in balanced + conics]
        assert splitting(fresh) == default, mode
        # validate_map's two bands, the conormal twists among 2d-2, 2d-1 and
        # a-1 at or above d, each once, and primal twists 0, 1, 2
        expected = sum(
            2 + len({2 * m.degree - 2, 2 * m.degree - 1, a - 1} - set(range(m.degree))) + 3
            for ((a, _), _), m in zip(default, fresh)
        )
        assert len(exact_ranks) == expected == 70, mode
        assert [validate_map(RationalCurveMap(m.forms)) for m in flawed_maps] == flawed, mode
    assert default[-3:] == [((2, 4), True)] * 3 and flawed[0].witness is not None


CONORMAL_BLOCKS = [[4, 5, 6, 7], [8, 9, 10, 11]]
NORMAL_BLOCKS = [[a, 4 + a, 8 + a] for a in range(4)]


def _per_twist_counts(rmap):
    """Conormal counts at twists d..2d-1 and normal counts at twists 0..2,
    each from its own band in block order (`_FormRows.rank`)."""
    d, rows = rmap.degree, rmap._rows
    conormal = [
        4 * (m - d + 1) - rows.rank(CONORMAL_BLOCKS, [m - d] * 4, min(2 * m, 4 * (m - d + 1)))
        for m in range(d, 2 * d)
    ]
    normal = [
        4 * (m + d + 1) - rows.rank(NORMAL_BLOCKS, [m, m + 1, m + 1], min(4 * (m + d + 1), 2 * m + 4))
        for m in range(3)
    ]
    return conormal, normal


def _window_counts(rmap):
    d = rmap.degree
    return conormal_counts(rmap, range(d, 2 * d)), normal_twisted_counts(rmap, range(3))


def test_window_counts_equal_per_twist_counts(monkeypatch):
    # one band at the top twist ranks every lower twist as a column prefix,
    # through a prime or the exact echelon of the prefix alike
    fixtures = [UNBALANCED_QUARTIC, UNBALANCED_SEXTIC, STANDARD_CONIC]
    maps = fixtures + [random_rational_map(d, seed) for d in range(1, 9) for seed in range(6)]
    default = [_per_twist_counts(rmap) for rmap in maps]
    assert [_window_counts(RationalCurveMap(m.forms)) for m in maps] == default
    # the fixtures' conormal profiles at twists d..2d-1 for (6, 8), (9, 13), (2, 4)
    assert [conormal for conormal, _ in default[:3]] == [[0, 0, 1, 2], [0, 0, 0, 1, 2, 3], [1, 2]]
    for mode in no_primes(monkeypatch):
        fresh = [RationalCurveMap(m.forms) for m in maps]
        assert [_window_counts(rmap) for rmap in fresh] == default, mode
        assert [_per_twist_counts(rmap) for rmap in fresh] == default, mode


def lowered_window_bounds_raise(d, message):
    """Ranks the conormal and normal windows of one degree-d map with their
    true prefix ranks, then with each bound lowered by one in turn, which
    must raise ArithmeticError with a message that `message(true rank)`
    matches."""
    rmap = random_rational_map(d, 3)
    rows, top = rmap._rows, 2 * d - 1
    twists = range(d, top + 1)
    shifts = [top - m for m in twists]
    conormal = [4 * (m - d + 1) - n for m, n in zip(twists, conormal_counts(rmap, twists))]
    normal = [4 * (m + d + 1) - n for m, n in zip(range(3), normal_twisted_counts(rmap, range(3)))]
    windows = [
        (CONORMAL_BLOCKS, [top - d] * 4, shifts, conormal, True),
        (NORMAL_BLOCKS, [2, 3, 3], [2, 1, 0], normal, False),
    ]
    for blocks, col_degrees, shifts, ranks, interleave in windows:
        assert rows.ranks(blocks, col_degrees, shifts, ranks, interleave) == ranks
        for j in range(len(ranks)):
            lowered = [r - (i == j) for i, r in enumerate(ranks)]
            with pytest.raises(ArithmeticError, match=message(ranks[j])):
                rows.ranks(blocks, col_degrees, shifts, lowered, interleave)


@pytest.mark.parametrize("d", [2, 4, 5])
def test_a_window_prefix_under_its_rank_raises(d):
    # each prefix of a window against its true rank, then with one bound
    # lowered by one: the prime that meets the true rank exceeds it
    lowered_window_bounds_raise(d, lambda rank: f"exceeds certified bound {rank - 1}")


@pytest.mark.parametrize("d", [2, 4, 5])
def test_a_window_prefix_under_its_rank_raises_without_primes(d, monkeypatch):
    # the same prefixes on the exact route: the echelon of the prefix
    # reduces to one pivot past the lowered bound and raises there
    monkeypatch.setattr(modp, "PRIMES", ())
    lowered_window_bounds_raise(d, lambda rank: f"^rank {rank} exceeds certified bound {rank - 1}$")


def test_cohomology_table_without_primes(monkeypatch):
    curves = [random_sigma_curve(2, seed) for seed in (0, 1)]
    rank_calls = count_rank_calls(monkeypatch)

    def table(curve):
        curve.certificate()
        rank_calls.clear()
        rows = cohomology_table(curve, -6, curve.r + 2).rows
        assert rank_calls == [], "the cohomology table takes no rank"
        return rows

    default = [table(c) for c in curves]
    for mode in no_primes(monkeypatch):
        # fresh copies, so that the certificate is the exact sweep
        assert [table(ACMCurve(c.matrix)) for c in curves] == default, mode
    # h^3 of the ideal sheaf is h^3 of O(k): ker phi^T is minors * S
    assert [row[3] for row in default[0]] == [monomial_count(4, -k - 4) for k in range(-6, 5)]


def test_wrong_certified_bound_raises(monkeypatch):
    curve = random_sigma_curve(2, 0)
    gens = [m for m in curve.minors if not m.is_zero()]
    # one below the true dimension: the default primes reach bound + 1
    for k in range(2, 6):
        ideal = form_ideal(gens)
        with pytest.raises(ArithmeticError, match="exceeds certified bound"):
            ideal.dimension(k, predicted_ideal_dimension(2, k) - 1)
    ideal = form_ideal(gens)
    # one generator times x0, ..., x3 already has four distinct lead columns,
    # with the columns in either order
    monkeypatch.setattr(modp, "PRIMES", ())
    with pytest.raises(ArithmeticError, match="exceeds certified bound"):
        ideal.dimension(3, 1)


def test_certified_rank_takes_each_route(monkeypatch):
    # the graded levels of one certified r = 2 curve, each with its proven
    # dimension, and again times every prime, which reduces them to zero
    ideal = random_sigma_curve(2, 0).ideal
    levels = [(ideal._row_stream(k), monomial_count(4, k), predicted_ideal_dimension(2, k)) for k in (2, 3, 4)]
    scale = math.prod(p for p, _ in modp.PRIMES)

    def scaled(rows):
        return [[(c, scale * a, scale * b) for c, a, b in row] for row in rows]

    echelons = [(ideals.sparse_echelon(rows), ncols, dim) for rows, ncols, dim in levels]
    targets = []
    sparse_echelon = ideals.sparse_echelon

    def counting_echelon(rows, target=None):
        targets.append(target)
        return sparse_echelon(rows, target)

    monkeypatch.setattr(ideals, "sparse_echelon", counting_echelon)
    for rows, ncols, dim in levels:
        assert certified_rank(rows, ncols, dim) == dim
        assert targets == [], "a prime meets the bound"
        assert certified_rank(scaled(rows), ncols, dim) == dim
        assert targets == [dim]
        assert certified_rank(rows, ncols, None) == dim
        assert targets == [dim, None]
        targets.clear()
    # one below the true rank: a prime exceeds it, and so does the first
    # pass of the exact echelon, since an echelon's lead columns are distinct
    for rows, ncols, dim in echelons:
        for route in (rows, scaled(rows)):
            with pytest.raises(ArithmeticError, match="exceeds certified bound"):
                certified_rank(route, ncols, dim - 1)
        assert targets == [dim - 1]
        targets.clear()
