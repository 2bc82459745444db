"""Bit identity of the Gaussian-integer elimination against the Q(i) one.

The private reference below is the elimination as it ran on monic
`GaussianRational` rows.  The kernel in `ideals` takes the same rows
cleared of denominators and hands back primitive rows led by (column, D, 0);
read as monic Q(i) rows, they and its tables must equal the reference's,
entry by entry, on every kind of input its callers give it.
"""

import random
from fractions import Fraction

import pytest

from hkcurves.acm_curve import fiber_generators, random_fiber_parameters, random_sigma_curve
from hkcurves.exact_algebra import ideals
from hkcurves.exact_algebra.ideals import (
    normal_form_table,
    sparse_echelon,
    sparse_row_rank,
)
from hkcurves.exact_algebra.polys import monomial_basis, monomial_index
from hkcurves.exact_algebra.scalars import GaussianRational
from hkcurves.pencil import canonical_pair, pair_stabilizer_dimension, random_injective_pencil

import suites
from suites import form, form_ideal, integer_row

_ZERO = GaussianRational(0, 0)
_ONE = GaussianRational(1, 0)


def _ref_monic_row(row):
    lead = row[0][1]
    if lead == _ONE:
        return row
    inv = _ONE / lead
    return [(row[0][0], _ONE)] + [(c, v * inv) for c, v in row[1:]]


def _ref_combine_rows(row, piv):
    """row - lead(row) * piv, where piv is monic and shares row's lead column."""
    factor = row[0][1]
    out = []
    i, j = 1, 1
    nr, np_ = len(row), len(piv)
    while i < nr and j < np_:
        cr, cp = row[i][0], piv[j][0]
        if cr < cp:
            out.append(row[i])
            i += 1
        elif cr > cp:
            out.append((cp, -(factor * piv[j][1])))
            j += 1
        else:
            v = row[i][1] - factor * piv[j][1]
            if v.re or v.im:
                out.append((cr, v))
            i += 1
            j += 1
    if i < nr:
        out.extend(row[i:])
    while j < np_:
        out.append((piv[j][0], -(factor * piv[j][1])))
        j += 1
    return out


def _ref_sparse_echelon(rows, target=None):
    pivots = {}
    deferred = []
    for row in rows:
        if not row:
            continue
        if row[0][0] in pivots:
            deferred.append(row)
        else:
            pivots[row[0][0]] = _ref_monic_row(row)
    if target is None or len(pivots) <= target:
        for row in deferred:
            while row:
                piv = pivots.get(row[0][0])
                if piv is None:
                    break
                row = _ref_combine_rows(row, piv)
            if row:
                pivots[row[0][0]] = _ref_monic_row(row)
                if target is not None and len(pivots) > target:
                    break
    if target is not None and len(pivots) > target:
        raise ArithmeticError(f"rank {len(pivots)} exceeds certified bound {target}")
    return [pivots[c] for c in sorted(pivots)]


def _ref_normal_form_table(echelon):
    table = {}
    for row in reversed(echelon):
        acc = {}
        for col, val in row[1:]:
            sub = table.get(col)
            if sub is None:
                acc[col] = acc.get(col, _ZERO) - val
            else:
                for c2, v2 in sub.items():
                    acc[c2] = acc.get(c2, _ZERO) - val * v2
        table[row[0][0]] = {c: v for c, v in acc.items() if v.re or v.im}
    return table


def _monic(echelon):
    """Echelon rows led by (column, D, 0) as the monic Q(i) rows they stand for."""
    return [
        [(c, GaussianRational(Fraction(a, row[0][1]), Fraction(b, row[0][1]))) for c, a, b in row]
        for row in echelon
    ]


def _gauss(rows):
    """Gaussian-integer rows as Q(i) rows, equal to the rows they stand for up to scale."""
    return [[(c, GaussianRational(a, b)) for c, a, b in row] for row in rows]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return ("raised", str(exc))


def assert_matches_reference(rows, target=None):
    """Echelon, table and rank of the Q(i) rows cleared of denominators agree
    with the reference on the rows themselves; returns the monic echelon."""
    rows = [list(row) for row in rows]
    cleared = [integer_row(row) for row in rows]
    echelon = sparse_echelon(cleared, target)
    monic = _monic(echelon)
    assert monic == _ref_sparse_echelon(rows, target)
    assert normal_form_table(echelon) == _ref_normal_form_table(monic)
    if target is None:
        assert sparse_row_rank(cleared) == len(echelon)
    return monic


def _recording(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its materialised arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(rows, *rest):
        rows = [list(row) for row in rows]
        calls.append((rows,) + rest)
        return original(rows, *rest)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("r, levels", [(2, range(2, 7)), (3, range(3, 6))])
def test_graded_levels_match_reference(r, levels):
    curve = random_sigma_curve(r, 0)
    ideal = form_ideal(curve.minors)
    index = monomial_index(4, ideal.gen_degree)
    gen_rows = [sorted((index[m], v) for m, v in g.coeffs.items()) for g in curve.minors if not g.is_zero()]
    assert _monic(ideal._reduced_generators()) == assert_matches_reference(gen_rows)
    for k in levels:
        rows = _gauss(ideal._row_stream(k))
        full = assert_matches_reference(rows)
        bounded = assert_matches_reference(rows, curve.ideal.dimension(k))
        assert [row[0][0] for row in bounded] == [row[0][0] for row in full]
        # the normal form of each monomial: a pivot's table entry, else itself
        table = _ref_normal_form_table(_monic(ideal._build(k)))
        for col, mono in enumerate(monomial_basis(4, k)):
            assert ideal.normal_form(form(4, k, {mono: 1})) == table.get(col, {col: _ONE})


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_fiber_slices_match_reference(r, monkeypatch):
    curve = random_sigma_curve(r, 1)
    # the slices' reference echelon, on the rows and tables it hands the kernel
    echelons = _recording(monkeypatch, suites, "sparse_echelon")
    tables = _recording(monkeypatch, suites, "normal_form_table")
    # the slices in both charts: at infinity, those of the swapped curve
    for t in random_fiber_parameters(3, r):
        for chart in (curve, suites.swapped(curve)):
            gens = fiber_generators(chart, t)
            fiber = suites.AffineFiber(gens, r + 2)
            (rows,) = echelons.pop()
            assert _monic(fiber.echelon) == _ref_sparse_echelon(_gauss(rows))
            assert normal_form_table(fiber.echelon) == _ref_normal_form_table(_monic(fiber.echelon))
            fiber.multiplication_matrices()
            (suffix,) = tables.pop()
            assert normal_form_table(suffix) == _ref_normal_form_table(_monic(suffix))


@pytest.mark.parametrize("r, seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_stabilizer_rows_match_reference(r, seed, monkeypatch):
    # refuse the modular certificate so the exact echelon runs on the same rows
    monkeypatch.setattr(ideals, "sparse_rank_certificate", lambda bound, level: False)
    calls = _recording(monkeypatch, ideals, "sparse_echelon")
    rank = (r + 1) ** 2 + r * r - 1
    for A1, A2 in (random_injective_pencil(r, seed), canonical_pair(r)):
        assert pair_stabilizer_dimension(A1, A2) == 1
        rows, bound = calls.pop()
        assert bound == rank
        assert len(assert_matches_reference(_gauss(rows))) == rank


def _coprime_rows(seed, rank, count, ncols):
    """`count` sparse rows of rank `rank` with large, pairwise coprime denominators."""
    rng = random.Random(seed)
    primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 999983, 999979]

    def scalar():
        return GaussianRational(
            Fraction(rng.randint(-10**6, 10**6), rng.choice(primes)),
            Fraction(rng.randint(-10**6, 10**6), rng.choice(primes)),
        )

    base = []
    for _ in range(rank):
        cols = sorted(rng.sample(range(ncols), rng.randint(2, ncols // 2)))
        base.append({c: scalar() for c in cols})
    rows = []
    for _ in range(count):
        acc = {}
        for b in rng.sample(base, rng.randint(1, 3)):
            f = scalar()
            for c, v in b.items():
                acc[c] = acc.get(c, _ZERO) + f * v
        row = sorted((c, v) for c, v in acc.items() if v)
        if row:
            rows.append(row)
    return rows + [[(c, v) for c, v in b.items()] for b in base[: rank // 2]]


@pytest.mark.parametrize("seed", range(4))
def test_rank_deficient_coprime_rows_match_reference(seed):
    rows = _coprime_rows(seed, rank=6, count=12, ncols=14)
    echelon = assert_matches_reference(rows)
    assert len(echelon) == 6
    assert sparse_row_rank([integer_row(row) for row in rows]) == 6
    assert max(v.re.denominator for row in echelon for _, v in row) > 10**6


@pytest.mark.parametrize("seed", range(3))
def test_target_stop_and_overshoot_match_reference(seed):
    rows = _coprime_rows(10 + seed, rank=6, count=12, ncols=14)
    first_pass = len({row[0][0] for row in rows})
    cleared = [integer_row(row) for row in rows]
    outcomes = []
    for target in range(0, 8):
        ours = _outcome(lambda t: _monic(sparse_echelon(cleared, t)), target)
        assert ours == _outcome(_ref_sparse_echelon, rows, target)
        outcomes.append(ours)
    assert first_pass < 6
    for target, ours in enumerate(outcomes):
        # a target under the rank raises: at the first pass when its lead
        # columns exceed it, else at the first pivot the reduction finds past it
        if target < first_pass:
            assert ours == ("raised", f"rank {first_pass} exceeds certified bound {target}")
        elif target < 6:
            assert ours == ("raised", f"rank {target + 1} exceeds certified bound {target}")
        else:
            assert len(ours) == 6


def test_zero_entries_are_dropped():
    # an accumulated row may hold an exact zero; clearing denominators drops
    # it, so it never becomes a pivot
    x = GaussianRational(Fraction(2, 3), 1)
    rows = [integer_row(row) for row in [[(0, _ZERO), (2, x)], [(1, _ZERO), (2, _ONE)], [(0, _ZERO)]]]
    assert _monic(sparse_echelon(rows)) == [[(2, _ONE)]]
    assert sparse_row_rank(rows) == 1
