"""Parametrized rational curves: validation and normal bundle splitting."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hkcurves.exact_algebra.linalg import ExactMatrix
from hkcurves.exact_algebra.polys import UniPoly, binary_common_zero
from hkcurves.exact_algebra.scalars import GaussianRational, random_gaussian_rows
from hkcurves import rational_curve
from hkcurves.rational_curve import (
    RationalCurveMap,
    _band_layout,
    _common_zero,
    _FormRows,
    _minors,
    line_map,
    normal_splitting_type,
    normal_twisted_sections,
    random_rational_map,
    riemann_roch_consistent,
    stability_check,
    twisted_cubic_map,
    validate_map,
)
from suites import integer_row, mat_is_zero, splitting_pair

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def evaluate(rmap, s, t):
    """The map's four forms at [s : t], summed term by term: a validation
    witness checked independently of the rank certificates."""
    d = rmap.degree
    spow, tpow = [ONE], [ONE]
    for _ in range(d):
        spow.append(spow[-1] * s)
        tpow.append(tpow[-1] * t)
    return [sum((c * spow[d - k] * tpow[k] for k, c in enumerate(f)), ZERO) for f in rmap.forms]


def _map(rows):
    return RationalCurveMap(
        tuple(tuple(GaussianRational(c, 0) for c in row) for row in rows)
    )


STANDARD_CONIC = _map([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
# all four forms share the root [0:1]
BASE_POINT_MAP = _map([(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 0)])
# cuspidal cubic: immersion fails at [1:0] where both partials align
CUSP_MAP = _map([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)])
# f = alpha (g ^ g' ^ h1) + beta (g ^ g' ^ h2) in the affine coordinate t,
# g four forms of degree e, g' = dg/dt, alpha and beta of degree 2, h1 and
# h2 constant: f lies on the line cut out by the planes g and g', so
# g . ds f = g . dt f = 0 and g is a conormal section at twist d + e.  Here
# d < a < 2d - 1, so twist a - 1 is ranked too.
UNBALANCED_QUARTIC = _map(  # e = 2: (6, 8)
    [(16, -10, -14, 48, -24), (29, 58, -84, -18, 30), (10, -8, -84, 44, 20), (15, 16, -42, -18, 30)]
)
UNBALANCED_SEXTIC = _map(  # e = 3: (9, 13)
    [
        (12, 54, 84, 130, 87, 4, 8),
        (0, 78, 178, 150, -167, 134, 69),
        (-24, -108, -82, 106, -188, -6, -12),
        (-18, 36, 180, 120, -339, 114, -33),
    ]
)


@pytest.mark.parametrize("count", [3, 5])
def test_map_needs_exactly_four_forms(count):
    with pytest.raises(ValueError, match=f"need four forms, got {count}"):
        RationalCurveMap(tuple((ONE, ZERO) for _ in range(count)))


def test_line_splitting():
    split = normal_splitting_type(line_map())
    assert splitting_pair(split) == (1, 1)
    assert stability_check(split)


def test_conic_splitting_unbalanced():
    split = normal_splitting_type(STANDARD_CONIC)
    assert splitting_pair(split) == (2, 4)
    assert not stability_check(split)


def test_twisted_cubic_splitting():
    split = normal_splitting_type(twisted_cubic_map())
    assert splitting_pair(split) == (5, 5)
    assert stability_check(split)


def _conormal_spy(monkeypatch, twist=None, count=None):
    """The twists `normal_splitting_type` asks `conormal_counts` for, in the
    order it reads them, with `count` in place of the true count at `twist`."""
    true = rational_curve.conormal_counts
    asked = []

    def spy(curve_map, twists):
        asked.extend(twists)
        return [count if m == twist else n for m, n in zip(twists, true(curve_map, twists))]

    monkeypatch.setattr(rational_curve, "conormal_counts", spy)
    return asked


@pytest.mark.parametrize(
    "rmap, pair, twists",
    [
        # twists 2d - 2 and 2d - 1 come from one window, then a - 1 on its own
        (line_map(), (1, 1), [0, 1]),  # twist 0 < d is not ranked
        (STANDARD_CONIC, (2, 4), [2, 3]),
        (twisted_cubic_map(), (5, 5), [4, 5]),
        (UNBALANCED_QUARTIC, (6, 8), [6, 7, 5]),
        (UNBALANCED_SEXTIC, (9, 13), [10, 11, 8]),
    ],
    ids=["line", "conic", "cubic", "quartic", "sextic"],
)
def test_split_reads_a_at_2d_minus_2_and_checks_two_twists(monkeypatch, rmap, pair, twists):
    asked = _conormal_spy(monkeypatch)
    split = normal_splitting_type(rmap)
    assert splitting_pair(split) == pair and riemann_roch_consistent(rmap, split)
    assert asked == twists


@pytest.mark.parametrize(
    "rmap, twist, count, match",
    [
        # 2d - 2: a count above d - 1 puts a below d
        (STANDARD_CONIC, 2, 2, "a = 1 below the degree 2"),
        (twisted_cubic_map(), 4, 3, "a = 2 below the degree 3"),
        (UNBALANCED_QUARTIC, 6, 4, "a = 3 below the degree 4"),
        # 2d - 2: a wrong a that the count at 2d - 1 refutes
        (twisted_cubic_map(), 4, 2, "at twist 5: 2 != 3"),
        (UNBALANCED_QUARTIC, 6, 2, "at twist 7: 2 != 3"),
        # 2d - 1
        (STANDARD_CONIC, 3, 3, "at twist 3: 3 != 2"),
        (twisted_cubic_map(), 5, 1, "at twist 5: 1 != 2"),
        (UNBALANCED_QUARTIC, 7, 3, "at twist 7: 3 != 2"),
        # a - 1, ranked only when it is at least d and not 2d - 2
        (UNBALANCED_QUARTIC, 5, 1, "at twist 5: 1 != 0"),
        (UNBALANCED_SEXTIC, 8, 2, "at twist 8: 2 != 0"),
    ],
    ids=[
        "conic-guard", "cubic-guard", "quartic-guard", "cubic-at-2d-2", "quartic-at-2d-2",
        "conic-at-2d-1", "cubic-at-2d-1", "quartic-at-2d-1", "quartic-at-a-1", "sextic-at-a-1",
    ],
)
def test_wrong_conormal_count_breaks_the_split(monkeypatch, rmap, twist, count, match):
    asked = _conormal_spy(monkeypatch, twist, count)
    with pytest.raises(ArithmeticError, match=match):
        normal_splitting_type(rmap)
    assert twist in asked


def test_band_layout_cache_holds_every_shape_of_a_large_split():
    # a degree-20 split visits 4 shapes (the two bands of `validate_map`, the
    # conormal window and the normal window), within the cache's 16
    _band_layout.cache_clear()
    for k in range(4):
        rmap = random_rational_map(20, k)
        assert riemann_roch_consistent(rmap, normal_splitting_type(rmap))
    assert _band_layout.cache_info().misses == 4


def test_conic_in_moved_plane_still_unbalanced():
    # same conic after a coordinate shuffle mixing all four coordinates
    conic = _map([(1, 0, 1), (0, 1, -1), (1, 0, -1), (0, 1, 1)])
    report = validate_map(conic)
    assert report.ok
    split = normal_splitting_type(conic)
    assert splitting_pair(split) == (2, 4)


def test_validation_flags_base_point():
    broken = BASE_POINT_MAP
    report = validate_map(broken)
    assert not report.base_point_free
    assert not report.ok
    assert report.witness is not None
    s0, t0 = report.witness
    assert evaluate(broken, s0, t0) == [ZERO, ZERO, ZERO, ZERO]


def test_validation_flags_cusp():
    report = validate_map(CUSP_MAP)
    assert report.base_point_free
    assert not report.immersion
    assert not report.ok


def test_splitting_requires_valid_map():
    with pytest.raises(ValueError):
        normal_splitting_type(BASE_POINT_MAP)


@pytest.mark.parametrize("step", [-1, 1])
def test_riemann_roch_reads_false_on_one_wrong_count(step, monkeypatch):
    # the check holds on the true counts, and fails when any one of the
    # three twisted counts is off by one
    rmap = random_rational_map(4, 2)
    split = normal_splitting_type(rmap)
    counts = rational_curve.normal_twisted_counts
    assert riemann_roch_consistent(rmap, split)
    for m in range(3):
        off = lambda curve_map, twists: [n + step * (k == m) for k, n in enumerate(counts(curve_map, twists))]
        monkeypatch.setattr(rational_curve, "normal_twisted_counts", off)
        assert not riemann_roch_consistent(rmap, split)


def test_a_map_is_validated_once(monkeypatch):
    calls = []

    def counting(curve_map):
        calls.append(curve_map)
        return validate_map(curve_map)

    monkeypatch.setattr(rational_curve, "validate_map", counting)
    # the draw validated its accepted map; its split and the Riemann-Roch
    # check read that validation
    rmap = random_rational_map(4, 2)
    drawn = len(calls)
    assert drawn >= 1 and calls[-1] is rmap
    split = normal_splitting_type(rmap)
    assert riemann_roch_consistent(rmap, split)
    assert rmap.validation.ok and len(calls) == drawn
    # a fresh map of the same forms is validated once, on first read
    fresh = RationalCurveMap(rmap.forms)
    assert len(calls) == drawn
    assert normal_splitting_type(fresh) == split
    assert fresh.validation == rmap.validation
    assert riemann_roch_consistent(fresh, split)
    assert calls[drawn:] == [fresh] and calls[-1] is fresh
    # flawed maps still refuse a split, fresh or already validated
    for flawed in (BASE_POINT_MAP, CUSP_MAP):
        for m in (flawed, RationalCurveMap(flawed.forms)):
            with pytest.raises(ValueError, match="base points or ramification"):
                normal_splitting_type(m)
            assert not m.validation.ok


def test_map_constructor_validation():
    with pytest.raises(ValueError):
        _map([(0, 0), (0, 0), (0, 0), (0, 0)])  # identically zero
    with pytest.raises(ValueError):
        RationalCurveMap(
            (
                (ONE, ZERO),
                (ONE,),
                (ZERO, ONE),
                (ZERO, ZERO),
            )
        )  # mixed degrees
    with pytest.raises(ValueError):
        _map([(1,), (0,), (0,), (0,)])  # degree zero


def test_random_maps_sum_invariant_and_rr():
    for d in (3, 4, 5):
        for seed in range(4):
            rmap = random_rational_map(d, seed)
            report = validate_map(rmap)
            assert report.ok
            split = normal_splitting_type(rmap)
            assert split.a + split.b == 4 * d - 2
            assert split.a <= split.b
            assert riemann_roch_consistent(rmap, split)


def test_normal_twisted_sections_match_split_model():
    rmap = twisted_cubic_map()
    split = normal_splitting_type(rmap)
    for m in (0, 1, 2, 3):
        expected = max(split.a + m + 1, 0) + max(split.b + m + 1, 0)
        assert normal_twisted_sections(rmap, m) == expected


def test_random_map_deterministic():
    a = random_rational_map(4, 11)
    b = random_rational_map(4, 11)
    assert a.forms == b.forms


def test_stability_check_semantics():
    assert stability_check(normal_splitting_type(twisted_cubic_map()))
    assert not stability_check(normal_splitting_type(STANDARD_CONIC))


def _dense(rows, band):
    """The band matrix as a dense ExactMatrix, zeros included."""
    (nrows, ncols), row_idx, col_idx, src = band
    dense = [[ZERO] * ncols for _ in range(nrows)]
    for i, c, q in zip(row_idx.tolist(), col_idx.tolist(), src.tolist()):
        dense[i][c] = GaussianRational(*rows.ints[q // rows.width][q % rows.width])
    return ExactMatrix(dense)


def _ref_band(rows, blocks, col_degrees):
    """`_FormRows.band` as it ran before layouts were cached by shape: the
    index lists rebuilt from the forms on every call."""
    row_idx, col_idx, src = [], [], []
    ncols = 0
    for c, cd in enumerate(col_degrees):
        nrows = 0
        for block in blocks:
            q = block[c]
            n = len(rows.ints[q])
            for k in range(cd + 1):
                row_idx.extend(range(nrows + k, nrows + k + n))
                col_idx.extend([ncols + k] * n)
                src.extend(range(q * rows.width, q * rows.width + n))
            nrows += n + cd
        ncols += cd + 1
    return (nrows, ncols), np.array(row_idx), np.array(col_idx), np.array(src)


def _band_cases(d):
    """(rows, blocks, col_degrees) for every band pattern a degree-d map uses."""
    rows = random_rational_map(d, 5)._rows
    for m in range(max(d, 2 * d - 2), 2 * d):  # conormal_sections of a balanced split
        yield rows, [[4, 5, 6, 7], [8, 9, 10, 11]], [m - d] * 4
    for m in range(3):  # normal_twisted_sections
        yield rows, [[a, 4 + a, 8 + a] for a in range(4)], [m, m + 1, m + 1]
    # validate_map: no common zero of the forms, then of the minors
    yield rows, [list(range(4))], [d - 1] * 4
    yield _FormRows(_minors(rows.ints[4:])), [list(range(6))], [max(2 * d - 3, 0)] * 6


def _check_band(rows, blocks, col_degrees):
    got, want = rows.band(blocks, col_degrees), _ref_band(rows, blocks, col_degrees)
    assert got[0] == want[0], (blocks, col_degrees)
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b), (blocks, col_degrees)


@pytest.mark.parametrize("d", range(1, 7))
def test_band_layout_matches_per_call_reference(d):
    for case in _band_cases(d):
        _check_band(*case)


def test_band_layout_with_unequal_form_lengths():
    zeros = [[(0, 0)]] * 6
    for e in range(3):
        _check_band(_FormRows(zeros[:5] + [[(2, 1)]]), [list(range(6))], [e] * 6)
    mixed = [[(1, 0), (0, 1), (2, 2)], [(3, 0)], [(1, 1), (0, 0)]]
    for rows in (_FormRows(mixed), _FormRows(mixed[::-1])):
        for blocks in ([[0, 1, 2]], [[2, 1, 0], [1, 0, 2]]):
            _check_band(rows, blocks, [1, 2, 0])


def test_band_layout_is_cached_read_only_and_keyed_by_lengths():
    blocks, col_degrees = [[0, 1]], [1, 1]
    first = _FormRows([[(1, 0), (2, 0), (3, 0)], [(0, 1), (1, 1)]])
    # other coefficients, same lengths: the very same layout
    same = _FormRows([[(5, 5), (0, 0), (7, 1)], [(2, 0), (0, 3)]])
    layout = first.band(blocks, col_degrees)
    assert same.band(blocks, col_degrees) is layout
    for array in layout[1:]:
        with pytest.raises(ValueError):
            array[0] = 1
    # the lengths swapped at the same width: another layout
    other = _FormRows([[(1, 0), (2, 0)], [(0, 1), (1, 1), (3, 0)]])
    swapped = other.band(blocks, col_degrees)
    assert swapped is not layout
    assert not all(np.array_equal(a, b) for a, b in zip(swapped[1:], layout[1:]))


def _pairs(rows, band):
    """The band matrix as a dense table of Gaussian-integer pairs."""
    (nrows, ncols), row_idx, col_idx, src = band
    dense = [[(0, 0)] * ncols for _ in range(nrows)]
    for i, c, q in zip(row_idx.tolist(), col_idx.tolist(), src.tolist()):
        dense[i][c] = tuple(rows.ints[q // rows.width][q % rows.width])
    return dense


def _nonzero_rows(dense, width):
    return sorted(row[:width] for row in dense if any(a or b for a, b in row[:width]))


@pytest.mark.parametrize("d", range(1, 7))
def test_window_prefixes_are_the_lower_bands(d):
    # a window band is the block-order band with its columns sorted by
    # (k - col_degrees[c], c) and, interleaved, its rows by (t-exponent,
    # output); its first columns are the band of each lower twist, with
    # zero rows added and its rows relabelled
    rows = random_rational_map(d, 5)._rows
    windows = [
        ([[4, 5, 6, 7], [8, 9, 10, 11]], lambda m: [m - d] * 4, range(d, 2 * d), True),
        ([[a, 4 + a, 8 + a] for a in range(4)], lambda m: [m, m + 1, m + 1], range(3), False),
    ]
    for blocks, col_degrees, twists, interleave in windows:
        top = col_degrees(twists[-1])
        window = _pairs(rows, rows.band(blocks, top, True, interleave))
        (nrows, ncols), *_ = reference = _ref_band(rows, blocks, top)
        block_order = _pairs(rows, reference)
        columns = sorted(
            ((k - e, c), sum(top[:c]) + c + k) for c, e in enumerate(top) for k in range(e + 1)
        )
        height = nrows // len(blocks)
        order = sorted(range(nrows), key=lambda r: (r % height, r // height)) if interleave else range(nrows)
        assert window == [[block_order[r][j] for _, j in columns] for r in order]
        for m in twists:
            lower = _pairs(rows, rows.band(blocks, col_degrees(m), True, interleave))
            width = len(lower[0])
            assert width == sum(max(e + 1, 0) for e in col_degrees(m))
            assert _nonzero_rows(window, width) == _nonzero_rows(lower, width), m


@pytest.mark.parametrize("d", range(1, 6))
def test_euler_vectors_lie_in_normal_matrix_kernel(d):
    # the m+1 kernel vectors behind the bound of normal_twisted_sections
    rows = random_rational_map(d, 3)._rows
    for m in range(4):
        band = rows.band([[a, 4 + a, 8 + a] for a in range(4)], [m, m + 1, m + 1])
        matrix = _dense(rows, band)
        # the exact fallback's Gaussian-integer rows are the dense rows
        assert rows.exact_rows(band) == [integer_row(enumerate(row)) for row in matrix.data], m
        for j in range(m + 1):
            # h = s^(m-j) t^j: (d*h, -s*h, -t*h) in the columns of p, q1, q2
            vector = [0] * matrix.cols
            vector[j] = d
            vector[m + 1 + j] = -1
            vector[2 * m + 3 + j + 1] = -1
            assert mat_is_zero(matrix @ ExactMatrix([[v] for v in vector])), (m, j)


def _ramified_forms(rng, half, c):
    """Four forms g_a((s - c t)^2, t^2), each g_a of degree `half` with
    small integer coefficients: the map factors through a double cover
    ramified at [c : 1], where every Jacobian minor vanishes."""
    square, t2 = np.array([1, -2 * c, c * c]), np.array([0, 0, 1])
    forms = []
    for _ in range(4):
        f = np.zeros(2 * half + 1, dtype=np.int64)
        for k in range(half + 1):
            term = np.array([rng.randint(-2, 2)])
            for factor in [square] * (half - k) + [t2] * k:
                term = np.convolve(term, factor)
            f += term
        forms.append([GaussianRational(int(x)) for x in f])
    return forms


def _shares_a_zero(forms):
    """Whether the exact gcd route finds a common zero of the integer forms."""
    try:
        binary_common_zero(forms)
    except ArithmeticError:
        return False
    return True


def test_surjectivity_certificate_matches_exact_gcd():
    # the band rank decides a common zero of the forms, and of the Jacobian
    # minors, exactly as the exact gcd does
    rng = random.Random(7)
    verdicts, minor_verdicts = [], []
    for seed in range(40):
        d = 1 + seed % 4
        if seed % 2:
            forms = random_gaussian_rows(rng, 4, d + 1, 2)
        elif seed < 20:
            # (s - c t) * g_a: a planted common zero at [c : 1]
            c = rng.randint(-2, 2)
            g = random_gaussian_rows(rng, 4, d, 2)
            forms = [
                [(f[k] if k < d else ZERO) - (c * f[k - 1] if k else ZERO) for k in range(d + 1)]
                for f in g
            ]
        else:
            d = 2 * (1 + seed % 3)
            forms = _ramified_forms(rng, d // 2, rng.randint(-2, 2))
        try:
            rmap = RationalCurveMap(forms)
        except ValueError:
            continue
        if seed < 20:
            common_zero = _shares_a_zero(rmap._rows.ints[:4])
            certified = _common_zero(rmap._rows, range(4), d) is None
            assert certified == (not common_zero), seed
            verdicts.append(certified)
        minors = _FormRows(_minors(rmap._rows.ints[4:]))
        ramified = _shares_a_zero(minors.ints)
        certified = _common_zero(minors, range(6), 2 * d - 2) is None
        assert certified == (not ramified), seed
        minor_verdicts.append(certified)
    assert len(verdicts) >= 18 and 5 <= sum(verdicts) < len(verdicts)
    assert len(minor_verdicts) >= 36 and 10 <= sum(minor_verdicts) <= len(minor_verdicts) - 10



@pytest.mark.parametrize(
    "root, m", [(Fraction(1, 1000003), 2), (Fraction(2**1100), 1)], ids=["double", "past-float-range"]
)
def test_base_point_gets_its_exact_witness(root, m):
    # (t - root)^m times 1, t, 1 + t, 1 - t: numpy's split roots of a double
    # root at 1/q rationalize to no root, and a root past the float range
    # has no numeric roots; the mean of the gcd's roots is exact
    gcd = UniPoly([ONE])
    for _ in range(m):
        gcd = gcd * UniPoly([GaussianRational(-root), ONE])
    forms = [gcd * UniPoly(ell) for ell in ([1], [0, 1], [1, 1], [1, -1])]
    rmap = RationalCurveMap(tuple(f.coeffs + (ZERO,) * (m + 2 - len(f.coeffs)) for f in forms))
    report = validate_map(rmap)
    assert not report.base_point_free and not report.ok
    assert report.witness == (ONE, GaussianRational(root))
    assert report.obstruction_gcd == gcd
    assert evaluate(rmap, *report.witness) == [ZERO] * 4


def test_degree_one_maps_and_constant_forms():
    # a line's Jacobian minors are constants (degree e = 0)
    assert validate_map(line_map()).ok
    broken = _map([(0, 1), (0, 2), (0, 0), (0, 0)])  # t, 2t: base point [1:0]
    report = validate_map(broken)
    assert not report.base_point_free and not report.ok
    assert evaluate(broken, *report.witness) == [ZERO, ZERO, ZERO, ZERO]
    # at e = 0 the target is the constants, so vanishing constants certify nothing
    zeros = [[(0, 0)]] * 6
    assert _common_zero(_FormRows(zeros), range(6), 0) is not None
    assert _common_zero(_FormRows(zeros[:5] + [[(2, 1)]]), range(6), 0) is None
