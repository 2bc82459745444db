"""The stacked slice pass of `fibers.fiber_points` against the per-slice route.

`suites.reference_fiber_points` slices one parameter alone, on the echelon's
matrices.  The pass must give every slice the same floats, byte for byte,
and keep the per-slice semantics wherever a stacked LAPACK call or a check
fails for some slices only: each case below forces one such fallback by
wrapping `np.linalg`.
"""

import numpy as np
import pytest

from hkcurves.acm_curve import fiber_points, fibers
from hkcurves.twistor_metric import sample_parameters, scan_chart

from suites import reference_fiber_points

CANDIDATES = sample_parameters(16)


def same(pass_points, reference):
    return all(
        (a is None and b is None) or (a is not None and b is not None and a.tobytes() == b.tobytes())
        for a, b in zip(pass_points, reference, strict=True)
    )


@pytest.mark.parametrize("r, seeds", [(1, range(3)), (2, range(4)), (3, range(2))])
@pytest.mark.parametrize("flat", [True, False])
def test_pass_is_bit_identical_to_the_per_slice_route(r, seeds, flat):
    for seed in seeds:
        curve = scan_chart(r, seed, 1, 0, skip_sigma_gauge=not flat)
        points = fiber_points(curve, CANDIDATES)
        assert same(points, [reference_fiber_points(curve, t) for t in CANDIDATES])
        assert all(p is not None and p.shape == (r * (r + 1) // 2, 2) for p in points)


def test_pass_over_no_parameters():
    assert fiber_points(scan_chart(2, 0, 1, 0), []) == []


@pytest.fixture
def pass_case():
    """An r = 2 chart, seven parameters, and their per-slice points."""
    curve = scan_chart(2, 3, 1, 0)
    ts = sample_parameters(7)
    return curve, ts, [reference_fiber_points(curve, t) for t in ts]


# edits in place of the output of an eig call, on the rows of the slices to spoil


def clustered(vals, vecs):
    # fails the eigen-gap test
    vals[..., 1] = vals[..., 0]


def singular(vals, vecs):
    # makes the stacked inv raise, and the slice's own inv
    vecs[..., :, 1] = 0


def not_eigenvectors(vals, vecs):
    # fails the off-diagonal test
    vecs[...] = np.eye(vecs.shape[-1])


EIG_SPOILS = {"clustered": clustered, "singular": singular, "not eigenvectors": not_eigenvectors}
SPOILS = list(EIG_SPOILS) + ["off the curve"]


def spoil(monkeypatch, how, rows, every_call):
    """Make the slices `rows` (an index or a slice) of a stacked call fail
    the check `how` of an attempt: the first attempt, or with `every_call`
    each one.  "off the curve" fails the backward-error test.  Returns the
    lists of the eig calls' inputs and of the backward-error calls' points."""
    real_eig, real_errors, calls, checked = np.linalg.eig, fibers.backward_errors, [], []

    def eig(a):
        calls.append(a)
        vals, vecs = real_eig(a)
        if how in EIG_SPOILS and (every_call or len(calls) == 1):
            EIG_SPOILS[how](vals[rows], vecs[rows])
        return vals, vecs

    def errors(coeffs, pts):
        checked.append(pts)
        out = real_errors(coeffs, pts)
        if how == "off the curve" and (every_call or len(calls) == 1):
            out[rows] = 1.0
        return out

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(fibers, "backward_errors", errors)
    return calls, checked


@pytest.mark.parametrize("how", SPOILS)
def test_one_slice_failing_attempt_one_alone_is_retried(pass_case, monkeypatch, how):
    curve, ts, reference = pass_case
    # the second attempt of slice 2 alone
    with monkeypatch.context() as m:
        spoil(m, "clustered", slice(None), every_call=False)
        retried = reference_fiber_points(curve, ts[2])
    assert retried is not None and retried.tobytes() != reference[2].tobytes()
    calls, checked = spoil(monkeypatch, how, 2, every_call=False)
    real_inv, inverted = np.linalg.inv, []

    def inv(a):
        inverted.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    points = fiber_points(curve, ts)
    assert [len(a) for a in calls] == [7, 1]
    # each check drops the slice before the next one runs
    assert [len(a) for a in checked] == [7 if how == "off the curve" else 6, 1]
    if how == "clustered":
        assert inverted == [(6, 3, 3), (1, 3, 3)]
    elif how == "singular":
        # the stacked inv raises; the slices are inverted one by one
        assert inverted == [(7, 3, 3)] + [(3, 3)] * 7 + [(1, 3, 3)]
    else:
        assert inverted == [(7, 3, 3), (1, 3, 3)]
    assert same(points, reference[:2] + [retried] + reference[3:])


def test_stacked_eig_failure_rejects_only_the_slice_whose_own_eig_fails(pass_case, monkeypatch):
    curve, ts, reference = pass_case
    real, calls = np.linalg.eig, []

    def eig(a):
        calls.append(a.shape)
        # the stacked call raises, and so does the lone call of slice 4
        if a.ndim == 3 or len(calls) == 1 + 5:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    points = fiber_points(curve, ts)
    assert calls == [(7, 3, 3)] + [(3, 3)] * 7
    assert points[4] is None
    assert same(points, reference[:4] + [None] + reference[5:])


@pytest.mark.parametrize("how", SPOILS)
def test_pass_whose_every_slice_fails_gives_none_everywhere(pass_case, monkeypatch, how):
    curve, ts, _ = pass_case
    calls, _ = spoil(monkeypatch, how, slice(None), every_call=True)
    assert fiber_points(curve, ts) == [None] * 7
    # six attempts, each over every slice
    assert [len(a) for a in calls] == [7] * 6


def exact_floats(table, den, weights):
    """complex(a / n, b / n) of `_evaluate`'s exact numerators, entry by entry."""
    (re, im), dens = fibers._evaluate(table, den, weights)
    dens = np.broadcast_to(dens, re.shape)
    out = [complex(a / n, b / n) for a, b, n in zip(re.flat, im.flat, dens.flat)]
    return np.array(out, dtype=complex).reshape(re.shape)


def floats_and_route(table, den, weights, monkeypatch):
    """`_floats` of the table, and whether it took the object route."""
    calls = []
    evaluate = fibers._evaluate
    monkeypatch.setattr(fibers, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
    got = fibers._floats(table, den, weights)
    monkeypatch.undo()
    return got, bool(calls)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_float_route_is_the_exact_quotient_bit_for_bit(r, monkeypatch):
    # under the 2^53 bound the tables are evaluated in float64; each part is
    # the correctly rounded quotient of the exact numerator, +0.0 for zero
    weights, parts = fibers._weights(CANDIDATES, r), []
    for seed in range(2):
        gens, gens_den, mats, mats_den = scan_chart(r, seed, 1, 0).slice_tables
        for table, den in ((gens, gens_den), (mats, mats_den)):
            want = exact_floats(table, den, weights)
            got, objects = floats_and_route(table, den, weights, monkeypatch)
            assert not objects
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            parts += [want.real.ravel(), want.imag.ravel()]
    # the comparison covers zeros, and every one of them is +0.0
    parts = np.concatenate(parts)
    assert (parts == 0).any() and not np.signbit(parts[parts == 0]).any()


@pytest.mark.parametrize("r", [1, 2])
def test_table_past_the_bound_takes_the_object_route_to_the_same_floats(r, monkeypatch):
    # (k c) / (k n) is c / n, so the floats must not move; k = 3^34 > 2^53
    # is odd, so k c is not c with a shifted exponent, and its floats round
    weights, k = fibers._weights(CANDIDATES, r), 3**34
    gens, gens_den, mats, mats_den = scan_chart(r, 0, 1, 0).slice_tables
    for table, den in ((gens, gens_den), (mats, mats_den)):
        big, big_den = table * k, den * k
        got, objects = floats_and_route(big, big_den, weights, monkeypatch)
        assert objects
        assert got.tobytes() == exact_floats(big, big_den, weights).tobytes()
        assert got.tobytes() == fibers._floats(table, den, weights).tobytes()


def test_slice_draws_are_a_fresh_default_rng_2_sequence():
    rng = np.random.default_rng(2)
    want = [tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(6)]
    assert fibers._draws() == tuple(want)
    assert fibers._draws() is fibers._draws()
