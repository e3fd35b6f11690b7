"""The array-first trial engine against numpy's streams and the scalar
single-instance solvers.

Fading sweeps sample one (N, K) gain matrix per axis point and solve the
rows of consecutive axis points together in lockstep batches; every
per-trial draw must equal numpy's own per-trial generator, and every
per-trial number the scalar path, bit for bit.
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
from secnoma import _draw, _rows, maxmin
from secnoma._draw import _exponentials, _gains_from_draws, _row_uniforms, _trial_uniforms
from secnoma._rows import _log2_each, _maxmin_rates_per_trial, _maxmin_rows, _mean_stderr, _pow2_each
from secnoma.power_min import _recursion
from secnoma.secrecy import _stringency, _sum

from oracles import near_numpy_gains, numpy_uniforms

USER_COUNTS = range(1, 9)


def _geometry(num):
    # unequal distances, so the per-user path-loss scale is not one constant
    return NetworkGeometry(tuple(40.0 + 5.0 * k for k in range(num)), 80.0, 3.5, 1e-7, 2e-7)


# one to three Philox blocks of four uniforms per trial
DRAW_COUNTS = range(1, 10)
# one- and two-word SeedSequence entropy, at both ends of each word
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seeds(root, trials):
    return np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), trial_seeds(root, trials)])


def test_pool_of_word_arrays_equals_numpy_pool():
    # each seed's pool, from its (low, high) words as arrays, one per element
    seeds = _seeds(70, 300)
    pool = _draw._pool([seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)])
    want = [np.random.SeedSequence(seed).pool for seed in seeds.tolist()]
    assert all(word.dtype == np.uint32 for word in pool)
    assert np.array_equal(np.stack(pool, axis=1), want)


@pytest.mark.parametrize("num", DRAW_COUNTS)
def test_trial_gains_rows_equal_single_draws(num):
    geometry = _geometry(num)
    seeds = _seeds(1000 + num, 1000)
    uniforms = _trial_uniforms(seeds, num)
    gains = sample_trial_gains(geometry, seeds)
    assert gains.shape == (len(seeds), num)
    # numpy's uniforms bit for bit; its gains within 1 ulp of each draw,
    # since numpy's log1p rounds by the CPU's SIMD loop
    for u, row, seed in zip(uniforms, gains, seeds.tolist()):
        assert u.tobytes() == numpy_uniforms(seed, num).tobytes()
        assert near_numpy_gains(row, geometry, seed)
    # the single draw: on Python ints and floats, the batch's row bit for
    # bit, and checked against numpy's generator rather than that row
    for seed in EDGE_SEEDS:
        assert _row_uniforms(seed, num) == numpy_uniforms(seed, num).tolist()
        single = sample_realization(geometry, seed).user_gains
        assert single == tuple(sample_trial_gains(geometry, [seed])[0].tolist())
        assert near_numpy_gains(np.array(single), geometry, seed)


def test_trial_gains_follow_trial_order():
    geometry = _geometry(5)
    seeds = _seeds(77, 300)
    perm = np.random.default_rng(3).permutation(len(seeds))
    gains = sample_trial_gains(geometry, seeds)
    assert sample_trial_gains(geometry, seeds[perm]).tobytes() == gains[perm].tobytes()


def test_prefix_draw_equals_draw_at_each_count():
    # gain_vs_K draws and transforms once at the largest count and slices
    # each smaller one
    seeds = _seeds(78, 300)
    draws = _exponentials(_trial_uniforms(seeds, max(DRAW_COUNTS)))
    for num in DRAW_COUNTS:
        geometry = _geometry(num)
        prefix = _gains_from_draws(geometry, draws)
        assert prefix.tobytes() == sample_trial_gains(geometry, seeds).tobytes()


@pytest.mark.parametrize(
    "seeds",
    [[-1], [2**64], [1.5], [3, "4"], [-1, 2**64 - 1], np.array([5, -2]), np.array([0.0])],
)
def test_trial_gains_reject_seeds_outside_the_range(seeds):
    with pytest.raises(ValueError, match=r"^fading seeds must be integers in \[0, 2\*\*64\)$"):
        sample_trial_gains(_geometry(2), seeds)


def _random_gains(num, rows, rng):
    # gains spread over three decades, so brackets and iteration counts differ
    return np.sort(10.0 ** rng.uniform(0.0, 3.0, (rows, num)), axis=1)


def test_row_helpers_round_like_python_floats():
    # numpy's own power, log2 and pairwise sums can differ from these in the
    # last bit on some of these inputs
    rng = np.random.default_rng(5)
    # every exponent a bracket can hold: below 1024, since hi = log2 of a
    # finite float; each whole number with its float neighbours; and tiny ones
    whole = np.arange(1024.0)
    q = np.concatenate([
        rng.uniform(0.0, 20.0, 20000),
        rng.uniform(0.0, 1024.0, 20000),
        whole,
        np.nextafter(whole[1:], 0.0),
        np.nextafter(whole, 1024.0),
        10.0 ** rng.uniform(-320.0, -3.0, 20000),
    ])
    assert _pow2_each(q).tobytes() == np.array([2.0 ** x for x in q.tolist()]).tobytes()
    x = 10.0 ** rng.uniform(-3.0, 6.0, (10000, 2))
    expected = np.array([[math.log2(v) for v in row] for row in x.tolist()])
    assert _log2_each(x).tobytes() == expected.tobytes()
    a = 10.0 ** rng.uniform(-6.0, 3.0, (20000, 8))
    assert _sum(a.T).tobytes() == np.array([_sum(row) for row in a.tolist()]).tobytes()


def test_mean_stderr_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    sizes = [*range(2, 70), *rng.integers(70, 5001, 120).tolist(), 5000]
    for n in sizes:
        rates = rng.uniform(0.0, 8.0, (3, n))
        # and with most trials zero-filled as infeasible, as the sweeps fill them
        zero_heavy = np.where(rng.random((3, n)) < 0.7, 0.0, rates)
        for rates in (rates, zero_heavy):
            means, stderrs = _mean_stderr(rates)
            assert np.array(means).tobytes() == rates.mean(axis=1).tobytes()
            expected = rates.std(axis=1, ddof=1) / math.sqrt(n)
            assert np.array(stderrs).tobytes() == expected.tobytes()
    means, stderrs = _mean_stderr(np.array([[1.5], [0.0], [2.25]]))
    assert (means, stderrs) == ([1.5, 0.0, 2.25], [0.0, 0.0, 0.0])


def test_float_sum_adds_left_to_right():
    # a compensated sum (Python's sum() from 3.12) gives 1.0 here
    terms = [1e16, 1.0, -1e16]
    assert _sum(terms) == 0.0
    row = np.array([terms])
    assert _sum(row.T).tolist() == [0.0] == row.sum(axis=1).tolist()


@pytest.mark.parametrize("num", USER_COUNTS)
def test_recursion_rows_equal_scalar_recursion(num):
    rng = np.random.default_rng(100 + num)
    gains = _random_gains(num, 500, rng)
    q = rng.uniform(0.0, 4.0, len(gains))
    phi = rng.uniform(0.3, 1.0, len(gains))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        columns, _, _, ok = _recursion(gains.T, phi, _pow2_each(q), np.zeros((len(gains), 0), dtype=bool))
    powers = np.column_stack(columns)
    assert 0 < ok.sum() < len(gains)
    for row, phi_i, qi, got, got_ok in zip(gains.tolist(), phi.tolist(), q.tolist(), powers, ok):
        expected, _, _, _ = _recursion(row, phi_i, 2.0 ** qi)
        assert got_ok == (expected is not None)
        if got_ok:
            assert got.tobytes() == np.array(expected).tobytes()
    # two padding columns on the left: exactly 0.0 power, same verdicts
    padded = np.hstack([np.full((len(gains), 2), np.inf), gains])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        columns, _, _, pad_ok = _recursion(padded.T, phi, _pow2_each(q), np.isinf(padded[:, :2]))
    pad_powers = np.column_stack(columns)
    assert pad_ok.tobytes() == ok.tobytes()
    assert not pad_powers[pad_ok, :2].any()
    assert pad_powers[pad_ok, 2:].tobytes() == powers[ok].tobytes()


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


def _check_points(points, eaves, p, tol=1e-10):
    """Solve the (gains, eps) axis points in one call, every batch in
    lockstep, and compare every row with the scalar solvers; returns the
    feasible count per point."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_rows, "_SCALAR_ROWS", 0)
        got = list(_maxmin_rates_per_trial([(g, _stringency(eaves, eps)) for g, eps in points], p, tol))
    assert len(got) == len(points)
    counts = []
    for (gains, eps), ((noma, opt, eq), feasible) in zip(points, got):
        expected = _scalar_rates(gains, eaves, eps, p, tol)
        assert np.array_equal(feasible, expected[0] > 0)
        for rate, want in zip((noma, opt, eq), expected):
            assert rate.tobytes() == want.tobytes()
        counts.append(int(feasible.sum()))
    return counts


@pytest.mark.parametrize("num", USER_COUNTS)
def test_rates_per_trial_equal_scalar_solvers(num, monkeypatch):
    # several eps in one call: one stringency per row of the shared solve
    rng = np.random.default_rng(num)
    gains = _random_gains(num, 250, rng)
    for p in (0.01, 1.0, 100.0):
        counts = _check_points([(gains, eps) for eps in (0.05, 0.2, 0.4)], 2.0, p)
        assert all(0 < c < len(gains) for c in counts)  # infeasible rows are covered
        # the rows' bracket tops taken once and passed in, as avg_rate_vs_eps does
        monkeypatch.setattr(_rows, "_SCALAR_ROWS", 0)
        points = [(gains, _stringency(2.0, eps)) for eps in (0.05, 0.2, 0.4)]
        topped = [(*point, _rows._bracket_tops(gains[:, 0], p)) for point in points]
        for got, want in zip(_maxmin_rates_per_trial(topped, p, 1e-10), _maxmin_rates_per_trial(points, p, 1e-10)):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_rates_per_trial_ragged_user_counts():
    # K = 1..8 in one padded batch, as gain_vs_K solves its axis
    rng = np.random.default_rng(20)
    points = [(_random_gains(num, 120, rng), 0.3) for num in USER_COUNTS]
    for p in (0.01, 1.0, 100.0):
        counts = _check_points(points, 2.0, p)
        assert all(0 < c < 120 for c in counts)


class _BatchSpy:
    """Records the row count and user count of each lockstep solve; every
    batch takes the lockstep."""

    def __init__(self, monkeypatch):
        self.shapes = []
        monkeypatch.setattr(_rows, "_SCALAR_ROWS", 0)
        solve = _rows._lockstep

        def spy(gains, *args):
            self.shapes.append(gains.shape)
            return solve(gains, *args)

        monkeypatch.setattr(_rows, "_lockstep", spy)


def test_rates_per_trial_batches_cross_the_cap(monkeypatch):
    monkeypatch.setattr(_rows, "_BATCH_ROWS", 100)
    spy = _BatchSpy(monkeypatch)
    rng = np.random.default_rng(21)
    gains = [_random_gains(num, 60, rng) for num in (2, 3, 5, 4)]
    # eps 0.9 keeps every row (all gains are at least 1), gains below 0.1 clear
    # no stringency at eps 0.3; the fourth point alone exceeds the cap
    points = [(gains[0], 0.9), (gains[1], 0.9), (gains[2] * 1e-4, 0.3), (np.vstack([gains[2]] * 3), 0.9),
              (gains[3], 0.9), (gains[3] * 1e-4, 0.3), (gains[0], 0.9)]
    counts = _check_points(points, 1.0, 1.0)
    assert counts == [60, 60, 0, 180, 60, 0, 60]
    # a point without feasible rows does not widen its batch
    assert spy.shapes == [(60, 2), (60, 3), (180, 5), (60, 4), (60, 2)]


def test_rates_per_trial_with_no_feasible_row(monkeypatch):
    spy = _BatchSpy(monkeypatch)
    rng = np.random.default_rng(22)
    points = [(_random_gains(num, 50, rng) * 1e-4, 0.3) for num in (1, 4)]
    assert _check_points(points, 1.0, 1.0) == [0, 0]
    assert spy.shapes == [(0, 1)]


def test_rates_per_trial_raise_when_tolerance_too_coarse():
    gains = np.array([[2.0, 5.0], [3.0, 4.0], [0.1, 9.0]])
    eaves, eps, p, tol = 1.0, math.exp(-1.0), 1.0, 1.0
    with pytest.raises(ValueError, match="tolerance too coarse") as scalar:
        _scalar_rates(gains, eaves, eps, p, tol)
    with pytest.raises(ValueError, match="tolerance too coarse") as rows:
        list(_maxmin_rates_per_trial([(gains, _stringency(eaves, eps))], p, tol))
    assert str(rows.value) == str(scalar.value)


def test_rates_per_trial_validate_like_the_scalar_solvers():
    gains = np.array([[2.0, 5.0]])
    for eps, p, tol in ((1.0, 1.0, 1e-10), (0.3, 0.0, 1e-10), (0.3, 1.0, 0.0)):
        with pytest.raises(ValueError) as scalar:
            _scalar_rates(gains, 1.0, eps, p, tol)
        with pytest.raises(ValueError) as rows:
            list(_maxmin_rates_per_trial([(gains, _stringency(1.0, eps))], p, tol))
        assert str(rows.value) == str(scalar.value)


def test_draw_blocks_join_bit_for_bit():
    # one row past the second block boundary, each row numpy's own draw
    seeds = trial_seeds(79, _draw._DRAW_BLOCK + 3)
    uniforms = _trial_uniforms(seeds, 5)
    assert uniforms.shape == (len(seeds), 5)
    expected = np.array([numpy_uniforms(s, 5) for s in seeds.tolist()])
    assert uniforms.tobytes() == expected.tobytes()


# Batches with fewer feasible rows than _rows._SCALAR_ROWS are bisected
# row by row on the scalar path; the tests below hold both routes to the
# same bits and the same errors.


def _recording(solve, name, taken):
    def record(*args):
        taken.add(name)
        return solve(*args)

    return record


# the module each recorded function's caller looks it up in
_HOME = {"_bisect": maxmin, "_lockstep": _rows, "_tdma_maxmin_rows": _rows, "_window_rows": _rows}


def _routes(points, p, tol, recorded=("_bisect", "_lockstep")):
    """(row-by-row result or error, lockstep result or error) of one call
    on the (gains, phi) points, and the set of the recorded functions each
    call took."""
    taken, results = [], []
    for threshold in (_rows._SCALAR_ROWS, 0):
        names = set()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_rows, "_SCALAR_ROWS", threshold)
            for name in recorded:
                patch.setattr(_HOME[name], name, _recording(getattr(_HOME[name], name), name, names))
            try:
                results.append(list(_maxmin_rates_per_trial(points, p, tol)))
            except (ValueError, OverflowError) as exc:
                results.append(exc)
        taken.append(names)
    return results, taken


def _ragged_points(feasible, rng):
    """K = 1..8 points holding `feasible` feasible rows in all, each point
    with two rows that clear no stringency; at eps 0.9 every gain of at
    least 1 does, and none below 0.1."""
    phi = _stringency(1.0, 0.9)
    counts = np.full(8, feasible // 8)
    counts[: feasible % 8] += 1
    points = []
    for num, count in zip(USER_COUNTS, counts):
        gains = np.vstack([_random_gains(num, count, rng), _random_gains(num, 2, rng) * 1e-4])
        points.append((gains[rng.permutation(len(gains))], phi))
    return points


@pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
def test_route_at_the_threshold_equals_lockstep(offset):
    rng = np.random.default_rng(23)
    points = _ragged_points(_rows._SCALAR_ROWS + offset, rng)
    for p in (0.01, 1.0, 100.0):
        (routed, lockstep), taken = _routes(points, p, 1e-10)
        assert taken == [{"_bisect" if offset < 0 else "_lockstep"}, {"_lockstep"}]
        assert len(routed) == len(lockstep) == len(points)
        for (rates, feasible), (want_rates, want_feasible) in zip(routed, lockstep):
            assert feasible.tobytes() == want_feasible.tobytes()
            assert rates.tobytes() == want_rates.tobytes()
        assert 0 < sum(int(f.sum()) for _, f in routed) == _rows._SCALAR_ROWS + offset


def test_route_below_the_threshold_takes_no_row_kernel():
    # the row-by-row route takes its TDMA rates from the scalar kernels too
    points = _ragged_points(_rows._SCALAR_ROWS - 1, np.random.default_rng(24))
    recorded = ("_bisect", "_lockstep", "_tdma_maxmin_rows", "_window_rows")
    _, taken = _routes(points, 1.0, 1e-10, recorded)
    assert taken == [{"_bisect"}, {"_lockstep", "_tdma_maxmin_rows", "_window_rows"}]


def _same_error(results):
    routed, lockstep = results
    assert isinstance(routed, Exception) and type(routed) is type(lockstep)
    assert str(routed) == str(lockstep)
    return routed


@pytest.mark.parametrize("p, tol", [(0.0, 1e-10), (math.inf, 1e-10), (1.0, 0.0)])
def test_route_without_feasible_rows_still_validates(p, tol):
    points = [(_random_gains(num, 5, np.random.default_rng(num)) * 1e-4, 0.3) for num in (2, 5)]
    # the batch is checked before either route is taken
    error = _same_error(_routes(points, p, tol)[0])
    with pytest.raises(ValueError) as scalar:
        solve_maxmin_bisection(ChannelRealization((2.0, 5.0), 1.0), 0.3, p, tol)
    assert str(error) == str(scalar.value)


def test_route_errors_match_lockstep():
    phi = _stringency(1.0, math.exp(-1.0))
    # one row whose bracket overflows, after rows that solve
    overflow = [(np.array([[2.0, 5.0], [3.0, 4.0]]), phi), (np.array([[1e200, 1e201]]), phi)]
    error = _same_error(_routes(overflow, 1e110, 1e-10)[0])
    assert isinstance(error, OverflowError)
    # a tolerance too coarse for one row (see the lockstep test above)
    coarse = [(np.array([[2.0, 5.0], [3.0, 4.0], [0.1, 9.0]]), phi)]
    error = _same_error(_routes(coarse, 1.0, 1.0)[0])
    assert str(error) == "tolerance too coarse to certify a positive rate at this budget"
    # a row whose bracket stops shrinking at tol 1e-17, before one whose
    # bracket overflows: every bracket is checked before any row is solved
    phi = _stringency(1.0, 0.3)
    stalls = (np.array([[10.0**0.7, 10.0]]), phi)
    error = _same_error(_routes([stalls], 100.0, 1e-17)[0])
    assert str(error).startswith("tolerance finer than the float spacing")
    overflow = [stalls, (np.array([[1e307, 2e307]]), phi)]
    assert isinstance(_same_error(_routes(overflow, 100.0, 1e-17)[0]), OverflowError)


def _padded_rows(rng, rows, weakest, strongest=None):
    """(rows, 4) gains of K = 1..4 users each, ascending in the last columns
    with +inf padding to their left, the weakest gain of row i weakest[i];
    strongest, if given, replaces the last gain of every row with K > 1."""
    gains = np.full((rows, 4), np.inf)
    for i, num in enumerate(rng.integers(1, 5, rows)):
        row = np.sort(weakest[i] * 10.0 ** rng.uniform(0.0, 3.0, num))
        row[0] = weakest[i]
        if strongest is not None and num > 1:
            row[-1] = strongest
        gains[i, 4 - num :] = row
    return gains


def test_tdma_rows_equal_tdma_maxmin_on_edge_rows():
    # the lockstep's TDMA rates on padded rows whose slot rates sit at the
    # ends of the float range, against the public solver on each row's users
    rng = np.random.default_rng(31)
    rows = 2 * _rows._SCALAR_ROWS
    weakest = 10.0 ** rng.uniform(0.3, 0.6, rows)
    eps = 0.3
    cases = [
        # 1 + g p and 1 + phi p round alike for most weakest users: a zero
        # slot rate, while the bisection still finds a positive rate
        (_padded_rows(rng, rows, weakest), weakest * (1.0 - 1e-3) / math.log(1.0 / eps), 1e-15, 1e-20),
        # a stronger user's gain times the budget overflows: its slot rate is +inf
        (_padded_rows(rng, rows, weakest, 1e201), weakest * 0.5 / math.log(1.0 / eps), 1e110, 1e-10),
    ]
    optimal = []
    for gains, eaves, p, tol in cases:
        padding = np.isinf(gains[:, 0])
        assert padding.any() and not padding.all()
        phi = np.array([_stringency(e, eps) for e in eaves.tolist()])
        rates = _maxmin_rows(gains, phi, p, tol)
        want = np.zeros((2, rows))
        for i, row in enumerate(gains.tolist()):
            channel = ChannelRealization(tuple(g for g in row if g < math.inf), eaves[i])
            for j, mode in enumerate(("optimal_time", "equal_time")):
                want[j, i] = tdma_maxmin(channel, eps, p, mode).rate
        assert rates[1:].tobytes() == want.tobytes()
        assert (rates[0] > 0.0).all()
        optimal.append(rates[1])
    # both edges are reached: zero slot rates, and users that take no time
    assert 0 < np.count_nonzero(optimal[0] == 0.0) < rows
    overflowing = cases[1][0][:, -1] == 1e201  # 1e201 * 1e110 is +inf
    assert overflowing.any() and (optimal[1][overflowing] > 0.0).all()
