"""Exact scalar arithmetic and the literal grammar."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from hkcurves.acm_curve import ACMCurve, random_real_curve
from hkcurves.exact_algebra.linalg import ExactMatrix, random_invertible
from hkcurves.exact_algebra.scalars import (
    DRAW_SPAN,
    MAX_DRAWS,
    GaussianRational,
    first_draw,
    format_gauss,
    integer_pairs,
    parse_gauss,
    random_gaussian_pairs,
    random_gaussian_rows,
)
from hkcurves.pencil import is_injective_pencil, random_injective_pencil
from hkcurves.reality import make_sigma_invariant_pencil

from suites import gauss_norm, rational_sigma_pencil


def test_constructor_and_equality():
    a = GaussianRational(1, 2)
    assert a == GaussianRational(Fraction(1), Fraction(2))
    assert a != GaussianRational(1, 3)
    assert GaussianRational(Fraction(1, 2)) == GaussianRational(Fraction(1, 2), 0)


def test_integer_pairs_clear_one_common_denominator():
    assert integer_pairs([]) == ([], 1)
    # mixed denominators, given negative too: one lcm, signs on the numerators
    values = [
        GaussianRational(Fraction(1, -2), Fraction(2, 3)),
        GaussianRational(3, Fraction(5, -4)),
        GaussianRational(0),
        GaussianRational(Fraction(-7, -6)),
    ]
    pairs, den = integer_pairs(values)
    assert (pairs, den) == ([(-6, 8), (36, -15), (0, 0), (14, 0)], 12)
    assert [GaussianRational.over(a, b, den) for a, b in pairs] == values
    # one pass over an iterator, and integer_parts is the single-value case
    assert integer_pairs(iter(values)) == (pairs, den)
    assert values[0].integer_parts() == (-3, 4, 6)


def test_over_normalizes_sign_and_lowest_terms():
    z = GaussianRational.over(2, -4, -6)
    assert (z.re, z.im) == (Fraction(-1, 3), Fraction(2, 3))
    assert z.re.denominator == z.im.denominator == 3
    assert GaussianRational.over(-3, 0, -1) == 3
    with pytest.raises(ZeroDivisionError):
        GaussianRational.over(1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational.over(0, 0, 0)


def test_hash_agrees_with_equality():
    # a real value equals the int or Fraction it holds, so it must hash alike
    assert GaussianRational(3) == 3 and 3 in {GaussianRational(3)}
    assert Fraction(-5, 3) in {GaussianRational(Fraction(-5, 3))}
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    z = GaussianRational(1, 2)
    assert hash(z) == hash(GaussianRational(Fraction(2, 2), 2))
    assert len({z, GaussianRational(1), 1, Fraction(1)}) == 2


@pytest.mark.parametrize(
    "value",
    [
        GaussianRational(Fraction(-7, 3)),
        GaussianRational(0, Fraction(5, 2)),
        GaussianRational(Fraction(1, 4), -9),
    ],
)
def test_copy_and_pickle_round_trips(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is GaussianRational
        assert clone == value
        assert hash(clone) == hash(value)


def test_field_axioms_seeded():
    rng = random.Random(11)
    for _ in range(200):
        a = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        b = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == GaussianRational(0, 0)
        if not b.is_zero():
            assert (a / b) * b == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert gauss_norm(a) == a.re * a.re + a.im * a.im


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 0) / GaussianRational(0, 0)


def test_norm_multiplicative():
    a = GaussianRational(Fraction(3, 2), Fraction(-1, 4))
    b = GaussianRational(Fraction(-2, 3), Fraction(5, 7))
    assert gauss_norm(a * b) == gauss_norm(a) * gauss_norm(b)


def test_parse_basic_literals():
    assert parse_gauss("0") == GaussianRational(0, 0)
    assert parse_gauss("3") == GaussianRational(3, 0)
    assert parse_gauss("-3") == GaussianRational(-3, 0)
    assert parse_gauss("1/2") == GaussianRational(Fraction(1, 2), 0)
    assert parse_gauss("1i") == GaussianRational(0, 1)
    assert parse_gauss("-1i") == GaussianRational(0, -1)
    assert parse_gauss("2i") == GaussianRational(0, 2)
    assert parse_gauss("-5/3i") == GaussianRational(0, Fraction(-5, 3))
    assert parse_gauss("1+1i") == GaussianRational(1, 1)
    assert parse_gauss("1-2/3i") == GaussianRational(1, Fraction(-2, 3))
    assert parse_gauss("-1/2+7i") == GaussianRational(Fraction(-1, 2), 7)


def test_parse_unicode_minus_in_ascii_out():
    v = parse_gauss("−1/2+3i")
    assert v == GaussianRational(Fraction(-1, 2), 3)
    assert "−" not in format_gauss(v)


def test_parse_rejects_garbage():
    # bare i and +i shorthands are outside the grammar: coefficients explicit
    # and digits are ASCII: Fraction alone would read "٣" (Arabic-Indic) as 3
    for bad in ("", "x", "1+", "i", "-i", "1+i", "i2", "1~2i", "1 + 2i3", "--1", "٣", "３", "1/٢"):
        with pytest.raises(ValueError):
            parse_gauss(bad)


def test_parse_rejects_zero_denominator():
    for bad in ("1/0", "1/0i", "2+1/0i", "1/0-1i", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_gauss(bad)


def test_format_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(300):
        v = GaussianRational(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
        )
        text = format_gauss(v)
        assert parse_gauss(text) == v
        # canonical output is byte-stable under one more round trip
        assert format_gauss(parse_gauss(text)) == text


def test_from_complex_recovers_small_rationals():
    v = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
    back = GaussianRational.from_complex(complex(v), limit=100)
    assert back == v


def test_no_power_operator():
    assert not hasattr(GaussianRational, "__pow__")


def test_complex_embedding():
    v = GaussianRational(Fraction(1, 2), Fraction(-3, 2))
    assert complex(v) == 0.5 - 1.5j


def test_first_draw_returns_the_first_accepted_value():
    values = iter(range(MAX_DRAWS))
    assert first_draw("odd number", lambda: next(values), lambda v: v % 2 == 1) == 1
    # it stops drawing once a value is accepted
    assert next(values) == 2


def test_first_draw_counts_a_value_error_as_a_rejected_draw():
    calls = []

    def draw():
        calls.append(None)
        if len(calls) < MAX_DRAWS:
            raise ValueError("degenerate draw")
        return "last"

    assert first_draw("value", draw, lambda v: True) == "last"
    assert len(calls) == MAX_DRAWS

    # only `draw` is forgiven: a ValueError from `accept` is raised at once
    def accept(value):
        calls.append(None)
        raise ValueError("need r >= 1")

    with pytest.raises(ValueError, match="need r >= 1"):
        first_draw("value", lambda: 0, accept)
    assert len(calls) == MAX_DRAWS + 1


def test_first_draw_fails_after_max_draws_naming_what():
    calls = []
    with pytest.raises(RuntimeError) as info:
        first_draw("widget", lambda: calls.append(None), lambda v: False, r=2, seed=5)
    assert str(info.value) == f"no widget after {MAX_DRAWS} draws (r=2, seed=5)"
    assert len(calls) == MAX_DRAWS


@pytest.mark.parametrize("rows, cols, span", [(1, 4, 3), (3, 2, 3), (4, 4, 2), (0, 3, 1)])
def test_pair_drawer_draws_the_row_drawers_values_in_its_order(rows, cols, span):
    pair_rng, row_rng, flat_rng = random.Random(5), random.Random(5), random.Random(5)
    pairs = random_gaussian_pairs(pair_rng, rows, cols, span)
    assert random_gaussian_rows(row_rng, rows, cols, span) == tuple(
        tuple(GaussianRational(a, b) for a, b in row) for row in pairs
    )
    assert pair_rng.getstate() == row_rng.getstate()
    # row by row, real part before imaginary part
    assert [v for row in pairs for pair in row for v in pair] == [
        flat_rng.randint(-span, span) for _ in range(2 * rows * cols)
    ]


def test_seeded_drawers_give_the_matrices_of_their_rational_draws():
    # the drawers build integer forms; the same seeds drawn as
    # GaussianRational entries give the same matrices, form for form, the
    # invariant pencil's images included
    def rational(rng, rows, cols, span):
        return ExactMatrix(random_gaussian_rows(rng, rows, cols, span))

    for r, seed in ((1, 0), (2, 3), (3, 1), (4, 2)):
        rng = random.Random(seed)
        pencil = first_draw(
            "pencil", lambda: (rational(rng, r + 1, r, DRAW_SPAN), rational(rng, r + 1, r, DRAW_SPAN)),
            lambda mats: is_injective_pencil(*mats).ok,
        )
        assert [m.integer_form for m in random_injective_pencil(r, seed)] == [m.integer_form for m in pencil]
        rng = random.Random(seed)
        curve = first_draw(
            "curve", lambda: ACMCurve.from_real_pair(rational(rng, r + 1, r, DRAW_SPAN)),
            lambda c: c.certificate().ok,
        )
        drawn = random_real_curve(r, seed)
        assert [m.integer_form for m in drawn.coeffs] == [m.integer_form for m in curve.coeffs]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        want = first_draw("invertible", lambda: rational(ref_rng, r, r, 2), lambda m: m.rank() == r)
        got = random_invertible(r, rng)
        assert got.integer_form == want.integer_form and got == want and got.data == want.data
    for r in (1, 2, 3, 4):
        for seed in range(4):
            drawn, want = make_sigma_invariant_pencil(r, seed), rational_sigma_pencil(r, seed)
            assert [m.integer_form for m in drawn] == [m.integer_form for m in want]
            assert drawn == want and [m.data for m in drawn] == [m.data for m in want]
