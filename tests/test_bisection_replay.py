"""The seeded bisection replay against the plain bisection it replaced.

The max-min bisection decides a midpoint without a solve when it lies
outside a certified window around a Newton estimate of the switch. Its
result must be the plain bisection's, bit for bit, whatever the seed, and it
must keep needing only a few exact tests per row.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from secnoma import (
    ChannelRealization,
    NetworkGeometry,
    sample_trial_gains,
    solve_maxmin_bisection,
    trial_seeds,
)
from secnoma import _rows, maxmin
from secnoma._rows import _log2_each, _maxmin_rows, _tdma_maxmin_rows, _window_rows
from secnoma.power_min import _recursion
from secnoma.secrecy import _stringency, _sum

COARSE = "tolerance too coarse to certify a positive rate at this budget"
STALLED = "tolerance finer than the float spacing of the rate: the bracket stopped shrinking"
SCALAR_ROWS = _rows._SCALAR_ROWS


@pytest.fixture(autouse=True)
def _lockstep_only(monkeypatch):
    # the batches here are small; without this they would take the scalar
    # route and leave the lockstep untested
    monkeypatch.setattr(_rows, "_SCALAR_ROWS", 0)


def _plain_bisection(gains, phi, budget, tol):
    """The bisection as first written: an exact solve at every midpoint.
    Returns (rate, powers, iterations); powers is None if no floor fit."""
    lo, hi = 0.0, math.log2(1.0 + gains[0] * budget)
    best, iterations = None, 0
    while hi - lo >= tol:
        iterations += 1
        q = 0.5 * (lo + hi)
        powers, _, _, _ = _recursion(gains, phi, 2.0 ** q)
        if powers is not None and _sum(powers) <= budget:
            lo, best = q, powers
        else:
            hi = q
    return lo, best, iterations


def _batch(rows, eaves, eps):
    """The feasible rows at eps as one padded matrix, with their phis."""
    phi = _stringency(eaves, eps)
    feasible = [row for row in rows if row[0] > phi]
    width = max(len(row) for row in feasible)
    gains = np.array([[math.inf] * (width - len(row)) + row for row in feasible])
    return gains, np.full(len(feasible), phi)


def _check_against_oracle(rows, eaves, eps, budget, tol):
    """Solve the feasible rows both ways, the array path on one padded
    matrix, and compare each with the plain bisection."""
    phi = _stringency(eaves, eps)
    rows = [list(row) for row in rows if row[0] > phi]
    if not rows:
        return 0
    expected = [_plain_bisection(row, phi, budget, tol) for row in rows]
    # the whole padded batch, and its first row as a batch of one
    for batch, wanted in ((rows, expected), (rows[:1], expected[:1])):
        gains, phis = _batch(batch, eaves, eps)
        if any(best is None for _, best, _ in wanted):
            with pytest.raises(ValueError, match=f"^{COARSE}$"):
                _maxmin_rows(gains, phis, budget, tol)
        else:
            got = _maxmin_rows(gains, phis, budget, tol)[0]
            assert got.tobytes() == np.array([rate for rate, _, _ in wanted]).tobytes()
    for row, (rate, best, iterations) in zip(rows, expected):
        channel = ChannelRealization(tuple(row), eaves)
        if best is None:
            with pytest.raises(ValueError, match=f"^{COARSE}$"):
                solve_maxmin_bisection(channel, eps, budget, tol)
            continue
        sol = solve_maxmin_bisection(channel, eps, budget, tol)
        assert (sol.rate, sol.allocation.powers_mw, sol.iterations_used) == (rate, tuple(best), iterations)
    return len(rows)


@st.composite
def _instances(draw):
    # gains and eavesdropper scaled together over twelve decades: the
    # window is absolute in q, which has no units
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    row = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8)
    rows = [sorted(scale * 10.0**x for x in xs) for xs in draw(st.lists(row, min_size=1, max_size=6))]
    budget = 10.0 ** (draw(st.floats(-20.0, 50.0)) / 10.0)
    # from a few ulps of the widest bracket, where rows close many rounds
    # apart, to coarse enough that some rows certify nothing; no finer, as
    # a bracket of adjacent floats can then stop shrinking
    ulp = max(math.ulp(math.log2(1.0 + row[0] * budget)) for row in rows)
    tol = max(10.0 ** draw(st.floats(-17.0, -2.0)), draw(st.integers(2, 8)) * ulp)
    return rows, scale * 10.0 ** draw(st.floats(-1.0, 1.0)), draw(st.floats(0.02, 0.6)), budget, tol


@settings(max_examples=150, deadline=None)
@given(_instances())
def test_replay_equals_plain_bisection(instance):
    assume(_check_against_oracle(*instance))


def _standard_rows(seed=7, trials=60):
    """Sampled gain rows at K = 1..8, one geometry per K, and the
    eavesdropper gain of the last geometry (all share its distance)."""
    rows = []
    for num in range(1, 9):
        geometry = NetworkGeometry(tuple(40.0 + 6.0 * k for k in range(num)), 80.0, 3.5, 1e-7, 2e-7)
        rows += sample_trial_gains(geometry, trial_seeds(seed + num, trials)).tolist()
    return rows, geometry.eaves_avg_gain()


_WRONG_SEEDS = {
    "no seed": lambda r: r * math.nan,
    "two windows high": lambda r: r + 2.0 * maxmin._WINDOW,
    "two windows low": lambda r: r - 2.0 * maxmin._WINDOW,
    "infeasible side": lambda r: r + 1e-3,
    "feasible side": lambda r: r - 1e-3,
}


@pytest.mark.parametrize("shift", _WRONG_SEEDS.values(), ids=_WRONG_SEEDS)
def test_bad_seed_is_harmless(monkeypatch, shift):
    seed, seed_rows = maxmin._seed, _rows._seed_rows
    monkeypatch.setattr(maxmin, "_seed", lambda *args: shift(seed(*args)))
    monkeypatch.setattr(_rows, "_seed_rows", lambda *args: shift(seed_rows(*args)))
    rows, eaves = _standard_rows()
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        assert _check_against_oracle(rows, eaves, eps, 10.0 ** (p_dbm / 10.0), 1e-10)


def _replay_checking_every_round(bounds, lo_e, hi_e, tol):
    """The compare rounds of `_rows._replay` as first written, in place:
    every round computes the widths and stops once nothing moves. Returns
    the last midpoints and the widths if some bracket closed, else None."""
    lo, hi = bounds
    closing = False
    while True:
        q = 0.5 * (lo + hi)
        move = np.stack((q <= lo_e, q >= hi_e))
        width = hi - lo
        closing = closing or width.min() < tol
        if closing:
            move &= width >= tol
        if not move.any():
            return q, width if closing else None
        bounds[move] = np.broadcast_to(q, bounds.shape)[move]


@st.composite
def _open_brackets(draw):
    # tops over six hundred decades, some brackets raised off 0; tol from
    # 2 ulp of the widest top, where no bracket can stall, up to 1; each row
    # a window around a switch inside its bracket, or none
    rows = draw(st.integers(1, 8))
    tops = [10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(rows)]
    lows = [top * draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999))) for top in tops]
    finest = 2.0 * math.ulp(max(tops))
    tol = max(finest, min(finest, 1.0) ** (1.0 - draw(st.floats(0.0, 1.0))))
    lo_e, hi_e = [], []
    for lo, hi in zip(lows, tops):
        if draw(st.booleans()):
            switch = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
            half = (hi - lo) * 10.0 ** draw(st.floats(-15.0, -1.0))
            lo_e.append(switch - half)
            hi_e.append(switch + half)
        else:
            lo_e.append(-math.inf)
            hi_e.append(math.inf)
    return np.array([lows, tops]), np.array(lo_e), np.array(hi_e), tol, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_open_brackets())
def test_replay_skips_only_rounds_in_which_no_bracket_can_close(case):
    bounds, lo_e, hi_e, tol, seed = case
    assert not maxmin._can_stall(tol, float(bounds[1].max()))
    # whichever bound each round moves, no bracket is narrower than tol
    # after the rounds counted from the narrowest one
    rounds = _rows._rounds_to_close(float((bounds[1] - bounds[0]).min()), tol)
    lo, hi = bounds
    for up in np.random.default_rng(seed).random((rounds, len(lo))) < 0.5:
        q = 0.5 * (lo + hi)
        lo, hi = np.where(up, q, lo), np.where(up, hi, q)
        assert (hi - lo >= tol).all()
    # and the replay, which skips the width checks in those rounds, leaves
    # the bits of one that checks every round
    expected = bounds.copy()
    q_expected, width_expected = _replay_checking_every_round(expected, lo_e, hi_e, tol)
    q, move, step = np.empty(len(lo)), np.empty(bounds.shape, dtype=bool), np.empty(bounds.shape, dtype=np.int64)
    width = _rows._replay(bounds, lo_e, hi_e, tol, False, q, move, step)
    assert bounds.tobytes() == expected.tobytes() and q.tobytes() == q_expected.tobytes()
    if width_expected is None:
        assert width is None
    else:
        assert width.tobytes() == width_expected.tobytes()


def test_switch_within_ulps_of_a_midpoint():
    # the midpoints depend only on the decisions before them, so phi can be
    # moved until the budget test switches within one ulp of phi exactly at
    # the 30th midpoint, without changing the 29 decisions before it
    gains, budget, tol = [2.0, 5.0, 11.0], 3.0, 1e-10

    def fits(phi, q):
        powers, _, _, _ = _recursion(gains, phi, 2.0**q)
        return powers is not None and _sum(powers) <= budget

    lo, hi = 0.0, math.log2(1.0 + gains[0] * budget)
    for _ in range(30):
        q = 0.5 * (lo + hi)
        lo, hi = (q, hi) if fits(1.0, q) else (lo, q)
    below, above = 0.5, 2.0
    assert fits(below, q) and not fits(above, q)
    while math.nextafter(below, above) < above:
        mid = 0.5 * (below + above)
        below, above = (mid, above) if fits(mid, q) else (below, mid)
    eps = math.exp(-1.0)
    assert _stringency(1.0, eps) == 1.0
    for phi in (below, above):
        assert _check_against_oracle([gains], phi, eps, budget, tol) == 1


def test_replay_keeps_exact_tests_few(monkeypatch):
    """At most six exact tests per row on average, on both paths, against
    about 36 for the plain bisection."""
    calls = {"pow": 0, "fits": 0}
    pow2_each, fits = _rows._pow2_each, maxmin._fits

    def count_pow(q):
        calls["pow"] += q.size
        return pow2_each(q)

    def count_fits(*args):
        calls["fits"] += 1
        return fits(*args)

    monkeypatch.setattr(_rows, "_pow2_each", count_pow)
    monkeypatch.setattr(maxmin, "_fits", count_fits)
    rows, eaves = _standard_rows(seed=11, trials=150)
    solved = 0
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        phi = _stringency(eaves, eps)
        feasible = [row for row in rows if row[0] > phi]
        width = max(len(row) for row in feasible)
        gains = np.array([[math.inf] * (width - len(row)) + row for row in feasible])
        phis = np.full(len(feasible), phi)
        budget = 10.0 ** (p_dbm / 10.0)
        calls["pow"] = 0
        _maxmin_rows(gains, phis, budget, 1e-10)
        assert 0 < calls["pow"] / len(feasible) <= 6.0
        calls["fits"] = 0
        for row in feasible:
            solve_maxmin_bisection(ChannelRealization(tuple(row), eaves), eps, budget)
        assert 0 < calls["fits"] / len(feasible) <= 6.0
        solved += len(feasible)
    assert solved > 1000


def test_overflowing_bracket_raises_on_both_paths():
    # gain times budget beyond the float range: the bracket would be infinite
    gains, budget = [1e200, 1e201], 1e110
    with pytest.raises(OverflowError, match="overflows"):
        solve_maxmin_bisection(ChannelRealization(tuple(gains), 1.0), 0.3, budget)
    matrix, phi = np.array([gains]), np.array([_stringency(1.0, 0.3)])
    with pytest.raises(OverflowError, match="overflows"):
        _maxmin_rows(matrix, phi, budget, 1e-10)


def test_newton_windows_are_frozen(monkeypatch):
    # the windows the row Newton seed places, bit for bit, on the batches of
    # test_replay_keeps_exact_tests_few (recorded before the seed stopped
    # compacting its rows, when it also seeded the two-user rows of a
    # padded batch; re-recorded at a Newton stop of 1e-11). Its 2**q and
    # log2 are numpy's SIMD-dispatched loops, so the digest is this CPU's
    monkeypatch.setattr(_rows, "_seed_rows", _rows._newton_rows)
    rows, eaves = _standard_rows(seed=11, trials=150)
    digest = hashlib.sha256()
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        gains, phis = _batch(rows, eaves, eps)
        budget = 10.0 ** (p_dbm / 10.0)
        pad = np.isinf(gains[:, :-1])
        pad = pad[:, : int(pad.any(axis=0).sum())]
        hi = _log2_each(1.0 + gains.min(axis=1) * budget)
        floor, _ = _tdma_maxmin_rows(gains, phis, budget)
        for window in _window_rows(gains, phis, pad, budget, hi, floor):
            digest.update(window.tobytes())
    assert digest.hexdigest() == "40c41287dc13f014c9f9e1a99034025667e8484a28141283c45b9f0d89616c12"


def test_stalled_bracket_raises_on_both_paths():
    # 1e-17 is below the spacing of floats near the rate (about 1.3), so
    # the bracket ends as two adjacent floats still wider than tol
    gains, eaves, eps, p_dbm, tol = [10.0**0.7, 10.0], 1.0, 0.3, 20.0, 1e-17
    budget = 10.0 ** (p_dbm / 10.0)
    with pytest.raises(ValueError, match=f"^{STALLED}$"):
        solve_maxmin_bisection(ChannelRealization(tuple(gains), eaves), eps, budget, tol)
    matrix, phis = _batch([gains, [gains[1]]], eaves, eps)
    with pytest.raises(ValueError, match=f"^{STALLED}$"):
        _maxmin_rows(matrix, phis, budget, tol)


@pytest.mark.parametrize(
    "tol, weak_gain, message",
    [
        (math.inf, None, COARSE),
        (1e300, None, COARSE),
        (5e-324, None, STALLED),
        # 1 + g1 P rounds to 1: those brackets are [0, 0], beside open ones
        (1e-10, 1e-20, COARSE),
    ],
    ids=["inf", "1e300", "5e-324", "zero-width bracket"],
)
def test_extreme_tolerances_raise_alike_on_both_routes(monkeypatch, tol, weak_gain, message):
    # a batch as large as the sweeps hand the lockstep, whose replay counts
    # its rounds from width / tol: no such count may stand in for the error
    if weak_gain is None:
        rows, eaves = _two_user_rows(trials=3 * SCALAR_ROWS)
    else:
        rows = [[gain, 2.0 * gain] for gain in (weak_gain, 1.0)] * SCALAR_ROWS
        eaves = 1e-3 * weak_gain
    gains, phis = _batch(rows, eaves, 0.2)
    assert len(gains) >= SCALAR_ROWS
    for scalar_rows in (len(gains) + 1, SCALAR_ROWS):
        monkeypatch.setattr(_rows, "_SCALAR_ROWS", scalar_rows)
        with pytest.raises(ValueError) as raised:
            _maxmin_rows(gains, phis, 1.0, tol)
        assert type(raised.value) is ValueError and str(raised.value) == message


def test_fine_tolerance_that_closes_is_unchanged():
    # tol is below the spacing of floats at the top of the bracket, so the
    # stall check runs, but the rate lies where floats are 3e-20 apart and
    # the bracket closes as before
    eaves, eps, budget, tol = 1.0, 0.3, 1e4, 1e-17
    phi = _stringency(eaves, eps)
    rows = [[1.0001 * phi, 3.0 * phi], [1.001 * phi]]
    assert tol <= math.ulp(math.log2(1.0 + rows[0][0] * budget))
    assert _check_against_oracle(rows, eaves, eps, budget, tol) == 2


# The Newton seeds start from the feasible TDMA floor inside the solvers;
# the tests below drive their other branches: an infeasible start that is
# halved, a start outside (0, hi), and a seed that does not settle.


def _newton_cases(seed=7, trials=100):
    """Per (eps, budget) point, the feasible sampled rows with K = 3..8 as
    lists and as one padded batch, with phi and each row's hi."""
    rows, eaves = _standard_rows(seed, trials)
    rows = [row for row in rows if len(row) >= 3]
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        budget = 10.0 ** (p_dbm / 10.0)
        gains, phis = _batch(rows, eaves, eps)
        feasible = [row for row in rows if row[0] > phis[0]]
        pad = np.isinf(gains[:, :-1])
        pad = pad[:, : int(pad.any(axis=0).sum())]
        hi = _log2_each(1.0 + gains.min(axis=1) * budget)
        yield feasible, gains, phis, pad, budget, hi


def test_newton_from_an_infeasible_start():
    # from 0.999 hi the start reads infeasible and is halved until it fits;
    # when the switch lies below hi / 256, the halvings can use up
    # _NEWTON_EVALS, and the seed is then nan (no window)
    close = []
    for rows, gains, phis, pad, budget, hi in _newton_cases():
        phi = float(phis[0])
        switch = np.array([_plain_bisection(row, phi, budget, 1e-13)[0] for row in rows])
        scalar = np.array([maxmin._newton(row, phi, budget, h, 0.999 * h) for row, h in zip(rows, hi.tolist())])
        batch = _rows._newton_rows(gains, phis, pad, budget, hi, 0.999 * hi)
        for seeds in (scalar, batch):
            close.append(np.abs(seeds - switch) <= 1e-11)
            assert (close[-1] | (np.isnan(seeds) & (switch < hi / 256.0))).all()
    close = np.concatenate(close)
    assert close.size > 800 and close.mean() > 0.98


def test_newton_outside_the_bracket_is_nan():
    for rows, gains, phis, pad, budget, hi in _newton_cases(trials=20):
        for start in (np.zeros_like(hi), hi):
            for row, h, q in zip(rows, hi.tolist(), start.tolist()):
                assert math.isnan(maxmin._newton(row, float(phis[0]), budget, h, q))
            assert np.isnan(_rows._newton_rows(gains, phis, pad, budget, hi, start)).all()


def test_unsettled_newton_seed_is_harmless(monkeypatch):
    # one evaluation does not settle, so the rows Newton seeds get no
    # window and take an exact test at every midpoint
    # the scalar and the row Newton seeds each read their own module's count
    for module in (maxmin, _rows):
        monkeypatch.setattr(module, "_NEWTON_EVALS", 1)
    rows, eaves = _standard_rows()
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        assert _check_against_oracle(rows, eaves, eps, 10.0 ** (p_dbm / 10.0), 1e-10)


# Two-user rows take their windows from the closed-form optimum instead of
# Newton's method; the tests below hold that path to the same contract.


def _two_user_rows(seed=11, trials=500):
    """Sampled gain rows of the eps_sweep geometry (two users at 50 m, the
    eavesdropper at 80 m) and its eavesdropper gain."""
    geometry = NetworkGeometry((50.0, 50.0), 80.0, 4.0, 1e-7, 1e-7)
    return sample_trial_gains(geometry, trial_seeds(seed, trials)).tolist(), geometry.eaves_avg_gain()


@pytest.mark.parametrize("shift", _WRONG_SEEDS.values(), ids=_WRONG_SEEDS)
def test_bad_seed_is_harmless_on_two_users(monkeypatch, shift):
    seed, seed_rows = maxmin._seed, _rows._seed_rows
    monkeypatch.setattr(maxmin, "_seed", lambda *args: shift(seed(*args)))
    monkeypatch.setattr(_rows, "_seed_rows", lambda *args: shift(seed_rows(*args)))
    rows, eaves = _two_user_rows(trials=80)
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        assert _check_against_oracle(rows, eaves, eps, 10.0 ** (p_dbm / 10.0), 1e-10)


@st.composite
def _two_user_instances(draw):
    # as _instances, with exactly two users a row, so every batch is one the
    # closed form seeds; the strong gain reaches six decades above the weak
    # one and the stringency six decades below it
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    pair = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 6.0))
    rows = [sorted((scale * 10.0**a, scale * 10.0 ** (a + b))) for a, b in draw(st.lists(pair, min_size=1, max_size=6))]
    budget = 10.0 ** (draw(st.floats(-20.0, 50.0)) / 10.0)
    ulp = max(math.ulp(math.log2(1.0 + row[0] * budget)) for row in rows)
    tol = max(10.0 ** draw(st.floats(-17.0, -2.0)), draw(st.integers(2, 8)) * ulp)
    return rows, scale * 10.0 ** draw(st.floats(-6.0, 1.0)), draw(st.floats(0.02, 0.6)), budget, tol


@settings(max_examples=150, deadline=None)
@given(_two_user_instances())
def test_two_user_replay_equals_plain_bisection(instance):
    assume(_check_against_oracle(*instance))


def test_two_users_take_no_newton_step(monkeypatch):
    newton_rows = _rows._newton_rows
    batches = []

    def no_newton(*args):
        raise AssertionError("a two-user row ran Newton's method")

    def count_newton_rows(gains, *args):
        batches.append(gains.shape)
        return newton_rows(gains, *args)

    monkeypatch.setattr(maxmin, "_newton", no_newton)
    monkeypatch.setattr(_rows, "_newton_rows", count_newton_rows)
    rows, eaves = _two_user_rows(trials=60)
    assert _check_against_oracle(rows, eaves, 0.25, 100.0, 1e-10)
    assert batches == []
    # a one-user row pads the batch; Newton's method runs on that row alone
    gains, phis = _batch(rows + [[rows[0][1]]], eaves, 0.25)
    _maxmin_rows(gains, phis, 100.0, 1e-10)
    assert batches == [(1, gains.shape[1])]


def test_per_row_seeds_equal_newton_seeds_on_a_mixed_batch(monkeypatch):
    # gain_vs_users' padded K = 2..6 batch: its two-user rows take the
    # closed form, the others Newton's method; every row certifies a window
    # where Newton's method does, and the rates are those of Newton's
    # method on every row
    rows = []
    for num in range(2, 7):
        geometry = NetworkGeometry((50.0,) * num, 80.0, 4.0, 1e-7, 1e-7)
        rows += sample_trial_gains(geometry, trial_seeds(30 + num, 300)).tolist()
    eaves = geometry.eaves_avg_gain()
    for eps, budget in ((0.1, 100.0), (0.3, 1.0)):
        gains, phis = _batch(rows, eaves, eps)
        assert {2, 6} <= set(np.isfinite(gains).sum(axis=1).tolist())
        floor, _ = _tdma_maxmin_rows(gains, phis, budget)
        pad = np.isinf(gains[:, :-1])
        hi = _log2_each(1.0 + gains.min(axis=1) * budget)
        certified = np.isfinite(_window_rows(gains, phis, pad, budget, hi, floor)[0])
        rates = _maxmin_rows(gains, phis, budget, 1e-10)[0]
        with monkeypatch.context() as patch:
            patch.setattr(_rows, "_seed_rows", _rows._newton_rows)
            newton = np.isfinite(_window_rows(gains, phis, pad, budget, hi, floor)[0])
            assert rates.tobytes() == _maxmin_rows(gains, phis, budget, 1e-10)[0].tobytes()
        assert newton.mean() > 0.95 and not (newton & ~certified).any()


def test_two_user_replay_keeps_exact_tests_few(monkeypatch):
    """At most six exact tests per row on average, on both paths, at three
    outage bounds of the eps_sweep study (budget 20 dBm)."""
    calls = {"pow": 0, "fits": 0}
    pow2_each, fits = _rows._pow2_each, maxmin._fits

    def count_pow(q):
        calls["pow"] += q.size
        return pow2_each(q)

    def count_fits(*args):
        calls["fits"] += 1
        return fits(*args)

    monkeypatch.setattr(_rows, "_pow2_each", count_pow)
    monkeypatch.setattr(maxmin, "_fits", count_fits)
    rows, eaves = _two_user_rows(trials=600)
    budget, solved = 100.0, 0
    for eps in (0.05, 0.25, 0.45):
        gains, phis = _batch(rows, eaves, eps)
        calls["pow"] = 0
        _maxmin_rows(gains, phis, budget, 1e-10)
        assert 0 < calls["pow"] / len(gains) <= 6.0
        calls["fits"] = 0
        for row in gains.tolist():
            solve_maxmin_bisection(ChannelRealization(tuple(row), eaves), eps, budget)
        assert 0 < calls["fits"] / len(gains) <= 6.0
        solved += len(gains)
    assert solved > 1000


def _window_certified(gains, phi, budget):
    """Which rows of a two-user batch get a certified window."""
    pad = np.zeros((len(gains), 0), dtype=bool)
    hi = _log2_each(1.0 + gains[:, 0] * budget)
    floor, _ = _tdma_maxmin_rows(gains, phi, budget)
    return np.isfinite(_window_rows(gains, phi, pad, budget, hi, floor)[0])


def test_closed_form_certifies_wherever_newton_does(monkeypatch):
    # broad rows: gains over twelve decades, the strong one up to six
    # decades above the weak one, and the stringency down to 1e-6 of it
    rng = np.random.default_rng(2024)
    for budget in (1e-2, 1.0, 1e2, 1e4):
        g1 = 10.0 ** rng.uniform(-6.0, 6.0, 20000)
        phi = g1 * 10.0 ** rng.uniform(-6.0, 0.0, g1.size)
        gains = np.stack((g1, g1 * 10.0 ** rng.uniform(0.0, 6.0, g1.size)), axis=1)[g1 > phi]
        phi = phi[g1 > phi]
        closed = _window_certified(gains, phi, budget)
        with monkeypatch.context() as patch:
            patch.setattr(_rows, "_seed_rows", _rows._newton_rows)
            newton = _window_certified(gains, phi, budget)
        assert newton.mean() > 0.95
        assert not (newton & ~closed).any()


def test_two_user_seed_beyond_the_float_range_is_harmless():
    # the closed form's discriminant overflows at these gains, so the seed
    # is no number and every midpoint takes the exact test
    rows = [[1e110, 1e111], [1e160, 1e161], [1e300, 1e301]]
    assert _check_against_oracle(rows, 1.0, 0.3, 1.0, 1e-10) == 3
