"""The fading sweeps' row machinery: the max-min and TDMA rates of every
row of an (M, K) gain matrix, bit for bit those of the scalar solvers in
`maxmin`, and the fading runners' batches and per-point statistics. Only a
fading sweep loads this module.
"""
import functools
import math

import numpy as np

from .experiments import AggregateResult
from .maxmin import (
    _BRACKET_STALLED, _LN2, _NEWTON_EVALS, _NEWTON_STOP, _TOO_COARSE, _WINDOW, _bracket_top, _can_stall,
    _check_budget_and_tol, _equal_time_rate, _maxmin, _optimal_time_rate, _slot_rate, rate_ceiling_two_user,
)
from .power_min import _recursion
from .secrecy import _sum


# Reductions along the short axis of an (M, K) array cost numpy far more
# than one element-wise call per column; min is exact in any order, and a
# count of at most K is exact in floats.
def _min(cols):
    return functools.reduce(np.minimum, cols)


def _tdma_maxmin_rows(gains, phi, p):
    """`_tdma_rates`' two rates on every row of an (M, K) gain matrix, with
    one stringency per row in phi, bit for bit: a zero slot rate's weight
    1/0 = inf makes the optimal-time rate 0.0. +inf gains are padding, not
    users; they, and gains whose product with p overflows, take no time."""
    with np.errstate(over="ignore", divide="ignore"):
        slots = _slot_rate(gains, phi[:, None], p, _log2_each, np.maximum).T
        rate_opt, _ = _optimal_time_rate(slots)
    return rate_opt, _equal_time_rate(slots, _sum(np.isfinite(gains).T), _min)


# The rows must reproduce the scalar solvers bit for bit, so 2**q and log2
# must round as Python's `**` and math.log2 do, through the C library.
# `np.float_power`'s float64 loop calls libm `pow` itself; `np.power` and
# `np.exp2` may be SIMD-dispatched (AVX-512 SVML) and then differ from libm
# in the last bit on about 5% of inputs.
def _pow2_each(q):
    return np.float_power(2.0, q)


# No numpy loop calls libm `log2`: the SIMD `np.log2` and a long-double log2
# each differ on about 5e-5 to 4e-4 of inputs, by their range, so log2 stays
# one libm call per element, read through a memoryview so that only one
# Python float exists at a time.
def _log2_each(x):
    return np.fromiter(map(math.log2, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def _bracket_tops(weakest, power_budget_mw):
    """`_bracket_top` of each row's weakest gain, +inf where the product
    overflows: `_lockstep` raises on such a row once it is to be solved."""
    with np.errstate(over="ignore"):
        return _log2_each(1.0 + weakest * power_budget_mw)


def _seed_rows(gains, phi, pad, power_budget_mw, hi, q):
    """`_seed` on every row, with numpy's log2: the seed only places the
    window, so it need not round like the exact test. A row of two users
    takes the closed form on its last two columns; `_newton_rows` runs on
    the other rows, gathered once."""
    padded = np.zeros(len(gains))  # an array even when pad has no columns
    for col in pad.T:
        padded += col
    two = padded == gains.shape[1] - 2
    rest = ~two
    newton = rest.any()
    # a batch of two-user rows only, as in a one-K two-user sweep, needs no gather
    pick = two if newton else slice(None)
    seed = np.empty(len(gains))
    if two.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # s = p, unlifted (`_gap_scale`): a lift moves only seeds whose bracket is empty
            p = power_budget_mw
            seed[pick] = np.log2(rate_ceiling_two_user(gains[pick, -2], gains[pick, -1], phi[pick], p, p, np.sqrt))
    if newton:
        seed[rest] = _newton_rows(gains[rest], phi[rest], pad[rest], power_budget_mw, hi[rest], q[rest])
    return seed


def _newton_rows(gains, phi, pad, power_budget_mw, hi, q):
    """`_newton` on every row, with numpy's exp2 for 2**q. Rows stay in
    place; one that has settled or left (0, hi) is masked out of live and
    its arithmetic from then on is discarded."""
    seed = np.full(len(q), np.nan)
    live = np.ones(len(q), dtype=bool)
    feasible = np.zeros(len(q), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_EVALS):
            live &= (0.0 < q) & (q < hi)
            if not live.any():
                break
            rho = np.exp2(q)
            _, total, slope, ok = _recursion(gains.T, phi, rho, pad, tangent=True)
            fits = ok & (total <= power_budget_mw)
            step = total * (1.0 - total / power_budget_mw) / (slope * rho * _LN2)
            ahead = q + step
            settled = live & np.where(fits, step < _NEWTON_STOP * np.maximum(1.0, ahead), feasible)
            seed = np.where(settled, np.where(fits, ahead, q), seed)
            live &= ~settled
            q = np.where(fits, ahead, 0.5 * q)
            feasible |= fits
    return seed


def _fits_rows(cols, phi, power_budget_mw, q, pad):
    """`maxmin._fits` on the rows of the gain columns cols, with a pad mask
    (see `_recursion`) and one floor per row in q, bit for bit: 2**q rounds
    as Python's `**` does on floats, and the powers add column 0 first."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        powers, _, _, ok = _recursion(cols, phi, _pow2_each(q), pad)
        return ok & (_sum(powers) <= power_budget_mw)


def _window_rows(gains, phi, pad, power_budget_mw, hi, floor):
    """`_window` on every row."""
    r = _seed_rows(gains, phi, pad, power_budget_mw, hi, floor)
    lo_e, hi_e = r - _WINDOW, r + _WINDOW
    certified = (0.0 < lo_e) & (hi_e < hi)
    rows = np.flatnonzero(certified)
    cols, phi, pad = gains[rows].T, phi[rows], pad[rows]
    accepts_lo = _fits_rows(cols, phi, power_budget_mw, lo_e[rows], pad)
    certified[rows] = accepts_lo & ~_fits_rows(cols, phi, power_budget_mw, hi_e[rows], pad)
    return np.where(certified, lo_e, -np.inf), np.where(certified, hi_e, np.inf)


def _move(bits, q, move, narrow, step=None):
    """Set the bounds picked by move, a (2, M) mask over the int64 view bits
    of the (lo, hi) rows, to their row's midpoint in q. Bounds and midpoints
    are finite and nonnegative, so their bit patterns are int64s in
    [0, 2**63) whose differences cannot overflow, and bits += (q_bits -
    bits) * move sets each picked bound to q exactly, with no branch on the
    mask. Raises if a picked bound is its own midpoint (see `_can_stall`);
    narrow says whether that can happen. step, if given, is a (2, M) int64
    buffer for the differences."""
    step = np.subtract(q.view(np.int64), bits, out=step)
    step *= move
    if narrow and (move & (step == 0)).any():
        raise ValueError(_BRACKET_STALLED)
    bits += step


def _rounds_to_close(width, tol):
    """How many bisection rounds brackets at least width wide can take, each
    moving a bound to its midpoint, and still all be at least tol wide, when
    no bracket can stall (see `_can_stall`): a move at least halves a
    bracket, give or take the midpoint's rounding, which is then below
    tol / 2. 0 unless width / tol is a finite number above 4."""
    ratio = width / tol
    if not 4.0 < ratio < math.inf:
        return 0
    return int(math.log2(ratio)) - 1


def _replay(bounds, lo_e, hi_e, tol, narrow, q, move, step):
    """Decide by compares, in place, every midpoint of the (2, M) (lo, hi)
    rows in bounds that lies outside its row's window (lo_e, hi_e), round
    after round, until each midpoint left in q lies inside its window or
    belongs to a bracket narrower than tol. q, move and step are buffers of
    shape (M,), (2, M) and (2, M). Returns the widths once some bracket is
    narrower than tol, else None.

    A round whose move mask picks nothing changes no bits, so the rounds
    that `_rounds_to_close` guarantees to leave every bracket open are only
    the midpoint, the two compares and the blend: they compute no width and
    never test whether anything moved."""
    lo, hi = bounds
    bits = bounds.view(np.int64)
    closing = False
    blind = 0
    while True:
        np.add(lo, hi, out=q)
        q *= 0.5
        np.less_equal(q, lo_e, out=move[0])
        np.greater_equal(q, hi_e, out=move[1])
        if blind:
            blind -= 1
        else:
            width = hi - lo
            narrowest = float(width.min())
            closing = closing or narrowest < tol
            if closing:
                move &= width >= tol
            if not move.any():
                return width if closing else None
            if not narrow:
                # the count starts at this round, which was checked
                blind = max(_rounds_to_close(narrowest, tol) - 1, 0)
        _move(bits, q, move, narrow, step)


# `_maxmin_rows` solves fewer rows than this one at a time on the scalar
# path. A lockstep costs about 1.2-2 ms whatever its size and a scalar row
# about 50-90 us, so the two break even near 40-55 rows at K = 2..6.
_SCALAR_ROWS = 32


def _maxmin_rows(gains, phi, power_budget_mw, tol, hi=None):
    """The (3, M) max-min, optimal-time TDMA and equal-time TDMA rates of
    every row of an (M, K) gain matrix, with one stringency per row in phi,
    equal bit for bit to `solve_maxmin_bisection`'s and `tdma_maxmin`'s;
    every row's weakest gain must clear its phi. hi, if given, holds each
    row's `_bracket_tops`.

    A row with fewer than K users holds its gains, ascending, in its last
    columns and +inf in the leading ones. Fewer than _SCALAR_ROWS rows are
    solved one at a time by `_maxmin`, others in one `_lockstep`.
    Either way the budget, the tolerance and every row's bracket are checked
    before any row is bisected, and a tolerance too coarse for some row
    raises once every row is.
    """
    _check_budget_and_tol(power_budget_mw, tol)
    if len(gains) < _SCALAR_ROWS:
        # drop each row's padding: its +inf gains left of the last column
        rows = [(g[g[:-1].count(math.inf) :], f) for g, f in zip(gains.tolist(), phi.tolist())]
        for g, _ in rows:
            _bracket_top(g[0], power_budget_mw)  # every bracket before any bisection
        rates = np.array([_maxmin(g, f, power_budget_mw, tol)[:3] for g, f in rows]).reshape(-1, 3).T
    else:
        rates = _lockstep(gains, phi, power_budget_mw, tol, hi)
    if not (rates[0] > 0.0).all():
        raise ValueError(_TOO_COARSE)
    return rates


def _lockstep(gains, phi, power_budget_mw, tol, hi=None):
    """`_maxmin_rows`' rates of all rows at once, with its bracket tops in
    hi, if given; max-min rate 0.0 for a row that accepted no floor.

    Each row keeps its own bracket, a column of one (2, M) array of (lo,
    hi). A floor is accepted by raising lo to it, so lo is the last accepted
    floor, or 0.0 if there was none. In each pass every row first replays
    its midpoints by compares alone, in place, until each lies inside its
    window; only such rows then take an exact step, and a row leaves between
    passes once its bracket is narrower than tol. While every bracket is at
    least tol wide, no round computes which rows are live.
    """
    pad = np.isinf(gains[:, :-1])
    pad = pad[:, : int(pad.any(axis=0).sum())]  # padding is a column prefix
    weakest = _min(gains.T)
    _bracket_top(float(weakest.max(initial=0.0)), power_budget_mw)  # raises if any row's top overflows
    if hi is None:
        hi = _bracket_tops(weakest, power_budget_mw)
    # the optimal-time TDMA rate is a feasible floor
    floor, rate_eq = _tdma_maxmin_rows(gains, phi, power_budget_mw)
    narrow = _can_stall(tol, float(hi.max(initial=0.0)))
    lo_e, hi_e = _window_rows(gains, phi, pad, power_budget_mw, hi, floor)
    rate = np.empty(len(gains))
    active = np.arange(len(gains))
    bounds = np.stack((np.zeros(len(gains)), hi))
    # the replay's buffers; a pass uses the first columns, one per live row
    mid = np.empty(len(gains))
    moves = np.empty(bounds.shape, dtype=bool)
    steps = np.empty(bounds.shape, dtype=np.int64)
    while active.size:
        live_rows = active.size
        q = mid[:live_rows]
        width = _replay(bounds, lo_e, hi_e, tol, narrow, q, moves[:, :live_rows], steps[:, :live_rows])
        if width is not None:
            live = width >= tol
            done = ~live
            rate[active[done]] = bounds[0, done]
            active, gains, phi, pad = active[live], gains[live], phi[live], pad[live]
            bounds, lo_e, hi_e, q = bounds[:, live], lo_e[live], hi_e[live], q[live]
            if not active.size:
                break
        # every midpoint left lies inside its window: one exact step
        accept = _fits_rows(gains.T, phi, power_budget_mw, q, pad)
        _move(bounds.view(np.int64), q, np.stack((accept, ~accept)), narrow)
    return np.stack((rate, floor, rate_eq))


def _mean_stderr(rates):
    """Each row's mean and standard error of the mean over the columns of a
    2-D array, as lists: bit for bit `rates.mean(axis=1)` and
    `rates.std(axis=1, ddof=1) / sqrt(N)` (0.0 for one column), by the same
    ufunc steps numpy's mean and var take, without their Python-level
    dispatch."""
    trials = rates.shape[1]
    means = np.add.reduce(rates, axis=1) / trials
    if trials == 1:
        return means.tolist(), [0.0] * len(means)
    dev = rates - means[:, None]
    dev *= dev
    stderrs = np.sqrt(np.add.reduce(dev, axis=1) / (trials - 1)) / math.sqrt(trials)
    return means.tolist(), stderrs.tolist()


def _avg_rate_rows(rows, x, spec, rates, feasible):
    """Append the avg_min_rate row of each scheme at axis point x, from the
    (3, N) per-trial (noma, tdma_opt, tdma_eq) rates; returns the feasible
    fraction and the noma and tdma_opt (mean, stderr)."""
    frac = np.count_nonzero(feasible) / feasible.size
    stats = list(zip(*_mean_stderr(rates)))
    for scheme, (mean, stderr) in zip(("noma", "tdma_opt", "tdma_eq"), stats):
        rows.append(AggregateResult(x, scheme, "avg_min_rate", mean, stderr, frac, spec.trials, spec.seed))
    return frac, stats[0], stats[1]


# Feasible rows per lockstep solve: enough to spread numpy's fixed cost per
# call over many rows, few enough to keep the solver's arrays small.
_BATCH_ROWS = 4096


def _maxmin_rates_per_trial(points, p, tol):
    """Yield, for each axis point taken in order as (sorted (N, K) gain
    matrix, phi), its zero-filled (3, N) per-trial rates for the three
    schemes and its feasibility flags. A point may add, as a third item,
    each trial's bracket top (see `_maxmin_rows`); then every point must.

    Consecutive points share one solve of at most _BATCH_ROWS feasible
    rows; a point with more is solved alone. Points are read and yielded one
    batch at a time, so only one batch is held in memory.
    """
    batch, size = [], 0
    for gains, phi, *tops in points:
        # infeasible realizations contribute zero rate
        feasible = gains[:, 0] > phi
        count = int(np.count_nonzero(feasible))
        if batch and size + count > _BATCH_ROWS:
            yield from _solve_batch(batch, p, tol)
            batch, size = [], 0
        batch.append((gains[feasible], phi, feasible, [top[feasible] for top in tops]))
        size += count
    if batch:
        yield from _solve_batch(batch, p, tol)


def _solve_batch(batch, p, tol):
    """Solve the feasible rows of a batch of (rows, phi, feasible, [their
    bracket tops] or []) points in one call of `_maxmin_rows` and yield each
    point's rates and flags. Rows with fewer users than the widest point
    that has rows sit in the last columns, +inf to their left."""
    counts = [len(rows) for rows, _, _, _ in batch]
    width = max((rows.shape[1] for rows, _, _, _ in batch if len(rows)), default=1)
    stacked = np.full((sum(counts), width), np.inf)
    phi = np.repeat([phi for _, phi, _, _ in batch], counts)
    tops = [top for _, _, _, point_tops in batch for top in point_tops]
    hi = np.concatenate(tops) if tops else None
    start = 0
    for rows, _, _, _ in batch:
        if len(rows):
            stacked[start : start + len(rows), width - rows.shape[1] :] = rows
            start += len(rows)
    solved = _maxmin_rows(stacked, phi, p, tol, hi)
    for (_, _, feasible, _), block in zip(batch, np.split(solved, np.cumsum(counts)[:-1], axis=1)):
        rates = np.zeros((3, len(feasible)))
        rates[:, feasible] = block
        yield rates, feasible
