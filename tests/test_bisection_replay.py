"""The seeded bisection replay against the plain bisection it replaced.

The max-min bisection decides a midpoint without a solve when it lies
outside a certified window around a Newton estimate of the switch. Its
result must be the plain bisection's, bit for bit, whatever the seed, and it
must keep needing only a few exact tests per row.
"""
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
from secnoma import maxmin
from secnoma.maxmin import _bisect_rows
from secnoma.power_min import _recursion
from secnoma.secrecy import _stringency
from secnoma.tdma import _tdma_maxmin_rows

COARSE = "tolerance too coarse to certify a positive rate at this budget"


def _plain_bisection(gains, phi, budget, tol):
    """The bisection as first written: an exact solve at every midpoint.
    Returns (rate, powers, iterations); powers is None if no floor fit."""
    lo, hi = 0.0, math.log2(1.0 + gains[0] * budget)
    best, iterations = None, 0
    while hi - lo >= tol:
        iterations += 1
        q = 0.5 * (lo + hi)
        powers, _, _ = _recursion(gains, phi, 2.0 ** q)
        if powers is not None and sum(powers) <= budget:
            lo, best = q, powers
        else:
            hi = q
    return lo, best, iterations


def _check_against_oracle(rows, eaves, eps, budget, tol):
    """Solve the feasible rows both ways, the array path on one padded
    matrix, and compare each with the plain bisection."""
    phi = _stringency(eaves, eps)
    rows = [list(row) for row in rows if row[0] > phi]
    if not rows:
        return 0
    expected = [_plain_bisection(row, phi, budget, tol) for row in rows]
    coarse = any(best is None for _, best, _ in expected)
    width = max(len(row) for row in rows)
    gains = np.array([[math.inf] * (width - len(row)) + row for row in rows])
    phis = np.full(len(rows), phi)
    floor, _ = _tdma_maxmin_rows(gains, phis, budget)
    if coarse:
        with pytest.raises(ValueError, match=f"^{COARSE}$"):
            _bisect_rows(gains, phis, budget, tol, floor)
    else:
        got = _bisect_rows(gains, phis, budget, tol, floor)
        assert got.tobytes() == np.array([rate for rate, _, _ in expected]).tobytes()
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
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return (
        [sorted(scale * 10.0**x for x in xs) for xs in rows],
        scale * 10.0 ** draw(st.floats(-1.0, 1.0)),
        draw(st.floats(0.02, 0.6)),
        10.0 ** (draw(st.floats(-20.0, 50.0)) / 10.0),
        10.0 ** draw(st.integers(-13, -6)),
    )


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
    seed, seed_rows = maxmin._seed, maxmin._seed_rows
    monkeypatch.setattr(maxmin, "_seed", lambda *args: shift(seed(*args)))
    monkeypatch.setattr(maxmin, "_seed_rows", lambda *args: shift(seed_rows(*args)))
    rows, eaves = _standard_rows()
    for eps, p_dbm in ((0.1, 0.0), (0.3, 20.0), (0.05, 40.0)):
        assert _check_against_oracle(rows, eaves, eps, 10.0 ** (p_dbm / 10.0), 1e-10)


def test_switch_within_ulps_of_a_midpoint():
    # the midpoints depend only on the decisions before them, so phi can be
    # moved until the budget test switches within one ulp of phi exactly at
    # the 30th midpoint, without changing the 29 decisions before it
    gains, budget, tol = [2.0, 5.0, 11.0], 3.0, 1e-10

    def fits(phi, q):
        powers, _, _ = _recursion(gains, phi, 2.0**q)
        return powers is not None and sum(powers) <= budget

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
    calls = {"pow": 0, "recursion": 0}
    pow2_each, recursion = maxmin._pow2_each, maxmin._recursion

    def count_pow(q):
        calls["pow"] += q.size
        return pow2_each(q)

    def count_recursion(*args):
        calls["recursion"] += 1
        return recursion(*args)

    monkeypatch.setattr(maxmin, "_pow2_each", count_pow)
    monkeypatch.setattr(maxmin, "_recursion", count_recursion)
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
        _bisect_rows(gains, phis, budget, 1e-10, _tdma_maxmin_rows(gains, phis, budget)[0])
        assert calls["pow"] / len(feasible) <= 6.0
        calls["recursion"] = 0
        for row in feasible:
            solve_maxmin_bisection(ChannelRealization(tuple(row), eaves), eps, budget)
        assert calls["recursion"] / len(feasible) <= 6.0
        solved += len(feasible)
    assert solved > 1000


def test_overflowing_bracket_raises_on_both_paths():
    # gain times budget beyond the float range: the bracket would be infinite
    gains, budget = [1e200, 1e201], 1e110
    with pytest.raises(OverflowError, match="overflows"):
        solve_maxmin_bisection(ChannelRealization(tuple(gains), 1.0), 0.3, budget)
    matrix, phi = np.array([gains]), np.array([_stringency(1.0, 0.3)])
    with pytest.raises(OverflowError, match="overflows"):
        _bisect_rows(matrix, phi, budget, 1e-10, np.zeros(1))
