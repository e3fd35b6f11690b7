"""The array-first trial engine against the scalar single-instance solvers.

Fading sweeps sample one (N, K) gain matrix and solve all of its rows in
lockstep; every per-trial number must equal the scalar path bit for bit.
"""
import math

import numpy as np
import pytest

from secnoma import (
    ChannelRealization,
    NetworkGeometry,
    check_positive_rate_feasibility,
    sample_realization,
    sample_trial_gains,
    solve_maxmin_bisection,
    tdma_maxmin,
    trial_seeds,
)
from secnoma.experiments import _maxmin_rates_per_trial
from secnoma.maxmin import _log2_each, _pow2_each, _sum_rows
from secnoma.power_min import _recursion, _recursion_rows

USER_COUNTS = range(1, 9)


def _geometry(num):
    # unequal distances, so the per-user path-loss scale is not one constant
    return NetworkGeometry(tuple(40.0 + 5.0 * k for k in range(num)), 80.0, 3.5, 1e-7, 2e-7)


@pytest.mark.parametrize("num", USER_COUNTS)
def test_trial_gains_rows_equal_single_draws(num):
    geometry = _geometry(num)
    seeds = trial_seeds(1000 + num, 1000)
    gains = sample_trial_gains(geometry, seeds)
    assert gains.shape == (1000, num)
    scale = np.asarray(geometry.distances_user) ** (-geometry.path_loss_exponent)
    for row, seed in zip(gains, seeds.tolist()):
        assert tuple(row.tolist()) == sample_realization(geometry, seed).user_gains
    # the documented stream: one Philox keyed by SeedSequence(seed) per trial
    for row, seed in zip(gains[:50], seeds[:50].tolist()):
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(num)
        expected = np.sort(scale * (-1.0 * np.log1p(-u)) / geometry.noise_user_mw)
        assert row.tobytes() == expected.tobytes()


def _random_gains(num, rows, rng):
    # gains spread over three decades, so brackets and iteration counts differ
    return np.sort(10.0 ** rng.uniform(0.0, 3.0, (rows, num)), axis=1)


def test_row_helpers_round_like_python_floats():
    # numpy's own power, log2 and pairwise sums can differ from these in the
    # last bit on some of these inputs
    rng = np.random.default_rng(5)
    q = rng.uniform(0.0, 20.0, 20000)
    assert _pow2_each(q).tobytes() == np.array([2.0 ** x for x in q.tolist()]).tobytes()
    x = 10.0 ** rng.uniform(-3.0, 6.0, (10000, 2))
    expected = np.array([[math.log2(v) for v in row] for row in x.tolist()])
    assert _log2_each(x).tobytes() == expected.tobytes()
    a = 10.0 ** rng.uniform(-6.0, 3.0, (20000, 8))
    assert _sum_rows(a).tobytes() == np.array([sum(row) for row in a.tolist()]).tobytes()


@pytest.mark.parametrize("num", USER_COUNTS)
def test_recursion_rows_equal_scalar_recursion(num):
    rng = np.random.default_rng(100 + num)
    gains = _random_gains(num, 500, rng)
    q = rng.uniform(0.0, 4.0, len(gains))
    phi = 0.7
    powers, ok = _recursion_rows(gains, phi, _pow2_each(q))
    assert 0 < ok.sum() < len(gains)
    for row, qi, got, got_ok in zip(gains.tolist(), q.tolist(), powers, ok):
        expected, _, _ = _recursion(row, phi, 2.0 ** qi)
        assert got_ok == (expected is not None)
        if got_ok:
            assert got.tobytes() == np.array(expected).tobytes()


def _scalar_rates(gains, eaves, eps, p, tol):
    rates = np.zeros((3, len(gains)))
    for i, row in enumerate(gains):
        channel = ChannelRealization(tuple(row.tolist()), eaves)
        if not check_positive_rate_feasibility(channel, eps):
            continue
        rates[0, i] = solve_maxmin_bisection(channel, eps, p, tol).rate
        rates[1, i] = tdma_maxmin(channel, eps, p, "optimal_time").rate
        rates[2, i] = tdma_maxmin(channel, eps, p, "equal_time").rate
    return rates


@pytest.mark.parametrize("num", USER_COUNTS)
def test_rates_per_trial_equal_scalar_solvers(num):
    rng = np.random.default_rng(num)
    gains = _random_gains(num, 250, rng)
    eaves = 2.0
    for eps in (0.05, 0.4):
        for p in (0.01, 1.0, 100.0):
            noma, opt, eq, feasible = _maxmin_rates_per_trial(gains, eaves, eps, p, 1e-10)
            expected = _scalar_rates(gains, eaves, eps, p, 1e-10)
            assert 0 < feasible.sum() < len(gains)  # infeasible rows are covered
            assert np.array_equal(feasible, expected[0] > 0)
            for got, want in zip((noma, opt, eq), expected):
                assert got.tobytes() == want.tobytes()


def test_rates_per_trial_raise_when_tolerance_too_coarse():
    gains = np.array([[2.0, 5.0], [3.0, 4.0], [0.1, 9.0]])
    eaves, eps, p, tol = 1.0, math.exp(-1.0), 1.0, 1.0
    with pytest.raises(ValueError, match="tolerance too coarse") as scalar:
        _scalar_rates(gains, eaves, eps, p, tol)
    with pytest.raises(ValueError, match="tolerance too coarse") as rows:
        _maxmin_rates_per_trial(gains, eaves, eps, p, tol)
    assert str(rows.value) == str(scalar.value)


def test_rates_per_trial_validate_like_the_scalar_solvers():
    gains = np.array([[2.0, 5.0]])
    for eps, p, tol in ((1.0, 1.0, 1e-10), (0.3, 0.0, 1e-10), (0.3, 1.0, 0.0)):
        with pytest.raises(ValueError) as scalar:
            _scalar_rates(gains, 1.0, eps, p, tol)
        with pytest.raises(ValueError) as rows:
            _maxmin_rates_per_trial(gains, 1.0, eps, p, tol)
        assert str(rows.value) == str(scalar.value)
