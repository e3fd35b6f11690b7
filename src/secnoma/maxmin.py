"""Max-min confidential rate under a total power budget.

The common rate floor is feasible at some level iff the minimum-power problem
at that level fits the budget, and required power is increasing in the floor,
so a bisection on the floor is exact. For two users the optimum also has a
closed form, which doubles as an independent check on the bisection; the
bisection uses it only to place the window it replays around (`_seed`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._lazy import lazy_module
from .channel import ChannelRealization
from .power_min import InfeasibleReason, InfeasibleVerdict, _recursion
from .secrecy import PowerAllocation, _stringency, _sum

np = lazy_module("numpy")

DEFAULT_TOL = 1e-10
# an infinite bracket would never narrow
_BRACKET_OVERFLOW = "the weakest gain times the power budget overflows"
# nor would a bracket of two adjacent floats that is still tol wide
_BRACKET_STALLED = "tolerance finer than the float spacing of the rate: the bracket stopped shrinking"
_TOO_COARSE = "tolerance too coarse to certify a positive rate at this budget"


@dataclass(frozen=True)
class MaxMinSolution:
    """Certified common confidential rate, the allocation achieving it, and
    how many bisection steps produced it (0 for closed forms)."""

    rate: float
    allocation: PowerAllocation
    iterations_used: int

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValueError("max-min rate must be positive")


def check_positive_rate_feasibility(channel: ChannelRealization, eps: float) -> bool:
    """A positive common rate exists iff every gain clears the stringency."""
    return channel.user_gains[0] > _stringency(channel.eaves_avg_gain, eps)


def _positive_rate_verdict(channel, eps):
    phi = _stringency(channel.eaves_avg_gain, eps)
    failing = frozenset(
        k for k in range(1, channel.num_users + 1) if channel.user_gains[k - 1] <= phi
    )
    return InfeasibleVerdict(failing, InfeasibleReason.POSITIVE_RATE)


def solve_maxmin_bisection(
    channel: ChannelRealization,
    eps: float,
    power_budget_mw: float,
    tol: float = DEFAULT_TOL,
) -> MaxMinSolution | InfeasibleVerdict:
    """Bisect the common rate floor; accept a floor when the minimum-power
    solution exists and fits the budget, and return the last accepted floor
    with its allocation.

    The bracket starts at [0, log2(1 + gamma_1 * P)]: the weakest user could
    never exceed that rate even alone, unprotected. Midpoints outside a
    certified window around an estimate of the switch are decided without a
    solve (see `_window`); the result is the plain bisection's.
    """
    _check_budget_and_tol(power_budget_mw, tol)
    gains = channel.user_gains
    phi = _stringency(channel.eaves_avg_gain, eps)
    if not gains[0] > phi:
        return _positive_rate_verdict(channel, eps)
    rate, _, _, iterations = _maxmin(gains, phi, power_budget_mw, tol)
    if rate == 0.0:
        raise ValueError(_TOO_COARSE)
    powers, _, _, _ = _recursion(gains, phi, 2.0 ** rate)
    return MaxMinSolution(rate, PowerAllocation(tuple(powers)), iterations)


def _check_budget(power_budget_mw):
    if not (power_budget_mw > 0 and math.isfinite(power_budget_mw)):
        raise ValueError("power budget must be positive and finite")


def _check_budget_and_tol(power_budget_mw, tol):
    _check_budget(power_budget_mw)
    if not (tol > 0):
        raise ValueError("tolerance must be positive")


def _bracket_top(weakest, power_budget_mw):
    """The bisection's bracket top log2(1 + gamma_1 * P); raises if it
    overflows."""
    hi = math.log2(1.0 + weakest * power_budget_mw)
    if hi == math.inf:
        raise OverflowError(_BRACKET_OVERFLOW)
    return hi


def _maxmin(gains, phi, power_budget_mw, tol):
    """The max-min kernel of one instance's ascending gains, whose weakest
    must clear phi: (rate, optimal-time TDMA rate, equal-time TDMA rate,
    iterations) of `solve_maxmin_bisection` and `tdma_maxmin`, rate 0.0 if
    the bisection accepted no floor. Raises where the bracket overflows."""
    full, rate_eq, hi = _tdma_slots(gains, phi, power_budget_mw)
    # the seed starts from the optimal-time TDMA rate, a feasible floor
    # unless a stronger user's slot rate overflowed to inf
    rate_opt, _ = _optimal_time(full)
    rate, iterations = _bisect(gains, phi, power_budget_mw, tol, rate_opt, hi)
    return rate, rate_opt, rate_eq, iterations


def _bisect(gains, phi, power_budget_mw, tol, floor, hi):
    """`_maxmin`'s bisection over [0, hi], hi the bracket top, with a
    feasible floor in floor. Returns (rate, iterations), rate 0.0 if no
    floor was accepted."""
    lo = 0.0
    lo_e, hi_e = _window(gains, phi, power_budget_mw, hi, floor)
    narrow = _can_stall(tol, hi)
    iterations = 0
    while hi - lo >= tol:
        iterations += 1
        q = 0.5 * (lo + hi)
        if q <= lo_e or (q < hi_e and _fits(gains, phi, power_budget_mw, q)):
            if narrow and q == lo:
                raise ValueError(_BRACKET_STALLED)
            lo = q
        else:
            if narrow and q == hi:
                raise ValueError(_BRACKET_STALLED)
            hi = q
    return lo, iterations


def _can_stall(tol, hi):
    """Whether a bracket inside [0, hi] can stop shrinking before it is
    narrower than tol. A midpoint lies strictly between its bounds unless
    they are adjacent floats, and adjacent floats below hi are at most
    ulp(hi) apart; so only then can a step set a bound to itself, and it
    then repeats forever. Any coarser tol skips the check."""
    return tol <= math.ulp(hi)


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


def _slot_rate_full(gain, phi, p):
    # per-slot confidential rate of one TDMA user before time scaling, clipped at zero
    return max(0.0, math.log2((1.0 + p * gain) / (1.0 + p * phi)))


def _tdma_slots(gains, phi, p):
    """The per-slot TDMA rates of one instance's ascending gains, their
    equal-time common rate (tdma_maxmin's) and the bisection's bracket top,
    which raises where it overflows."""
    hi = _bracket_top(gains[0], p)
    full = [_slot_rate_full(g, phi, p) for g in gains]
    return full, min(full) / len(full), hi


def _optimal_time(slots):
    """Common rate of optimal-time TDMA over per-slot rates, and its slot
    fractions as a generator (the bisection needs only the rate): fractions
    in proportion to 1/rate equalize the users' rates, which is optimal
    because each is linear in its own fraction. (0.0, None) when some user
    has no positive slot rate."""
    if min(slots) <= 0.0:
        return 0.0, None
    weights = [1.0 / c for c in slots]
    total = _sum(weights)
    return 1.0 / total, (w / total for w in weights)


# Reductions along the short axis of an (M, K) array cost numpy far more
# than one element-wise call per column; min is exact in any order, and a
# count of at most K is exact in floats.
def _min(cols):
    return functools.reduce(np.minimum, cols)


def _tdma_maxmin_rows(gains, phi, p):
    """The optimal-time and equal-time TDMA rates of `_tdma_slots` and
    `_optimal_time` on every row of an (M, K) gain matrix, with one
    stringency per row in phi, bit for bit. A slot whose gain, or gain times
    the budget, is +inf takes zero weight; +inf gains are padding, not users."""
    with np.errstate(over="ignore", divide="ignore"):
        full = _log2_each((1.0 + p * gains) / (1.0 + p * phi[:, None]))
        full = np.where(full > 0.0, full, 0.0)
        weakest = _min(full.T)
        rate_opt = np.where(weakest > 0.0, 1.0 / _sum((1.0 / full).T), 0.0)
    return rate_opt, weakest / _sum(np.isfinite(gains).T)


# The bisection's result depends only on where its float feasibility test
# switches from accept to reject. An estimate r of that switch, checked by two
# exact tests at r -/+ _WINDOW, lets every midpoint outside that window be
# decided by a compare: the test is taken as monotone at this distance from
# its switch. The estimate is the closed-form optimum for two users and a
# Newton root otherwise. _WINDOW is absolute in q = log2(rho), which has no
# units, and dwarfs the seed's own distance from the switch (at most about
# 2e-15 on random instances with K = 1..8 and gains over twelve decades).
_WINDOW = 1e-11
_NEWTON_EVALS = 16
_NEWTON_STOP = 1e-13
_LN2 = math.log(2.0)


def _fits(cols, phi, power_budget_mw, q, pad=None):
    """The bisection's exact test: the floor q has a minimum-power solution
    that fits the budget. On one instance's gains, or with a pad mask (see
    `_recursion`) on the rows of the gain columns cols, with one floor per
    row in q. Either way 2**q rounds as Python's `**` does on floats, and
    the powers add column 0 first (`_sum`)."""
    if pad is None:
        powers, _, _, _ = _recursion(cols, phi, 2.0 ** q)
        return powers is not None and _sum(powers) <= power_budget_mw
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        powers, _, _, ok = _recursion(cols, phi, _pow2_each(q), pad)
        return ok & (_sum(powers) <= power_budget_mw)


def _seed(gains, phi, power_budget_mw, hi, q):
    """Estimate of the floor at which the budget test switches: log2 of the
    closed-form ceiling for two users, else `_newton`'s. nan if there is none
    (the ceiling underflows when the gains are near the float range's end)."""
    if len(gains) == 2:
        ceiling = rate_ceiling_two_user(*gains, phi, power_budget_mw)
        return math.log2(ceiling) if ceiling > 0.0 else math.nan
    return _newton(gains, phi, power_budget_mw, hi, q)


def _newton(gains, phi, power_budget_mw, hi, q):
    """Newton estimate of the floor at which the budget test switches: the
    root of 1/T(q) - 1/P, with T the recursion's total power, from the
    feasible floor q in (0, hi). nan when it does not settle inside (0, hi).

    A row stops once its step is below _NEWTON_STOP * max(1, q), or at an
    iterate that reads infeasible after a feasible one (rounding at the
    root); an infeasible start is halved.
    """
    feasible = False
    for _ in range(_NEWTON_EVALS):
        if not 0.0 < q < hi:
            break
        rho = 2.0 ** q
        _, total, slope, _ = _recursion(gains, phi, rho, tangent=True)
        if total is None or total > power_budget_mw:
            if feasible:
                return q
            q *= 0.5
            continue
        feasible = True
        step = total * (1.0 - total / power_budget_mw) / (slope * rho * _LN2)
        q += step
        if step < _NEWTON_STOP * max(1.0, q):
            return q
    return math.nan


def _window(gains, phi, power_budget_mw, hi, floor):
    """(lo_e, hi_e) around the seed, certified by the exact test accepting
    lo_e and rejecting hi_e inside (0, hi); (-inf, inf) otherwise, so that
    no midpoint is decided without a solve."""
    r = _seed(gains, phi, power_budget_mw, hi, floor)
    lo_e, hi_e = r - _WINDOW, r + _WINDOW
    if (
        0.0 < lo_e
        and hi_e < hi
        and _fits(gains, phi, power_budget_mw, lo_e)
        and not _fits(gains, phi, power_budget_mw, hi_e)
    ):
        return lo_e, hi_e
    return -math.inf, math.inf


# The row solvers must reproduce the scalar solvers bit for bit, so 2**q and
# log2 must round as Python's `**` and math.log2 do, through the C library.
# `np.float_power`'s float64 loop calls libm `pow` itself; `np.power` and
# `np.exp2` may be SIMD-dispatched (AVX-512 SVML) and then differ from libm in
# the last bit on about 5% of inputs. No numpy loop calls libm `log2`: the SIMD
# `np.log2` and a long-double log2 each differ on about 5e-5 to 4e-4 of inputs,
# by their range, so log2 stays one libm call per element, read through a
# memoryview so that only one Python float exists at a time.
def _pow2_each(q):
    return np.float_power(2.0, q)


def _log2_each(x):
    return np.fromiter(map(math.log2, memoryview(x.ravel())), float, x.size).reshape(x.shape)


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
            seed[pick] = np.log2(
                rate_ceiling_two_user(gains[pick, -2], gains[pick, -1], phi[pick], power_budget_mw, np.sqrt)
            )
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


def _window_rows(gains, phi, pad, power_budget_mw, hi, floor):
    """`_window` on every row."""
    r = _seed_rows(gains, phi, pad, power_budget_mw, hi, floor)
    lo_e, hi_e = r - _WINDOW, r + _WINDOW
    certified = (0.0 < lo_e) & (hi_e < hi)
    rows = np.flatnonzero(certified)
    cols, phi, pad = gains[rows].T, phi[rows], pad[rows]
    accepts_lo = _fits(cols, phi, power_budget_mw, lo_e[rows], pad)
    certified[rows] = accepts_lo & ~_fits(cols, phi, power_budget_mw, hi_e[rows], pad)
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


def _maxmin_rows(gains, phi, power_budget_mw, tol):
    """The (3, M) max-min, optimal-time TDMA and equal-time TDMA rates of
    every row of an (M, K) gain matrix, with one stringency per row in phi,
    equal bit for bit to `solve_maxmin_bisection`'s and `tdma_maxmin`'s;
    every row's weakest gain must clear its phi.

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
        rates = _lockstep(gains, phi, power_budget_mw, tol)
    if not (rates[0] > 0.0).all():
        raise ValueError(_TOO_COARSE)
    return rates


def _lockstep(gains, phi, power_budget_mw, tol):
    """`_maxmin_rows`' rates of all rows at once; max-min rate 0.0 for a row
    that accepted no floor.

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
    with np.errstate(over="ignore"):
        hi = _log2_each(1.0 + _min(gains.T) * power_budget_mw)
    if (hi == np.inf).any():
        raise OverflowError(_BRACKET_OVERFLOW)
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
        accept = _fits(gains.T, phi, power_budget_mw, q, pad)
        _move(bounds.view(np.int64), q, np.stack((accept, ~accept)), narrow)
    return np.stack((rate, floor, rate_eq))


def _psi(g1, g2, phi, p, sqrt=math.sqrt):
    """The square root of the two-user quadratic's discriminant, on floats
    with math.sqrt or on arrays with np.sqrt. Both are correctly rounded,
    and the spread is squared by a product, which numpy rounds as Python
    does (libm's pow(x, 2) need not), so both give the same bits."""
    spread = g2 - g1
    return sqrt(
        (1.0 + phi * p)
        * (4.0 * (1.0 + g1 * p) * (g1 - phi) * (g2 - phi) + (1.0 + phi * p) * (spread * spread))
    )


def _finite_psi(g1, g2, phi, p):
    """`_psi` for the public closed forms, which would return inf, 0.0 or
    nan where it overflows."""
    psi = _psi(g1, g2, phi, p)
    if psi == math.inf:
        raise OverflowError("the two-user closed form overflows")
    return psi


def _weak_power(psi, g1, g2, phi, p):
    # (B - psi) / (2 D) with B = (1 + phi p)((g1 - phi) + g1 p (g2 - phi) + S),
    # S = (1 + g1 p)(g2 - phi) and D = (1 + phi p) g1 g2 - phi^2 (1 + g1 p),
    # times (B + psi) / (B + psi): B^2 - psi^2 = 4 p (1 + phi p) S D, so no
    # near-equal terms are subtracted when g1 p is small
    c = 1.0 + phi * p
    s = (1.0 + g1 * p) * (g2 - phi)
    return 2.0 * p * c * s / (c * ((g1 - phi) + g1 * p * (g2 - phi) + s) + psi)


def solve_maxmin_two_user(
    channel: ChannelRealization, eps: float, power_budget_mw: float
) -> MaxMinSolution | InfeasibleVerdict:
    """Closed-form two-user optimum: the budget and both outage constraints
    are simultaneously tight, leaving one quadratic in the split."""
    if channel.num_users != 2:
        raise ValueError("closed form is specific to two users")
    _check_budget(power_budget_mw)
    if not check_positive_rate_feasibility(channel, eps):
        return _positive_rate_verdict(channel, eps)

    g1, g2 = channel.user_gains
    phi = _stringency(channel.eaves_avg_gain, eps)
    p = power_budget_mw
    psi = _finite_psi(g1, g2, phi, p)
    p1 = _weak_power(psi, g1, g2, phi, p)
    # (psi - C) / (2 D) with C = (g1 - phi) + (g2 - phi) + phi p (g2 - g1),
    # times (psi + C) / (psi + C): psi^2 - C^2 = 4 p (g1 - phi) D
    p2 = 2.0 * p * (g1 - phi) / (psi + (g1 - phi) + (g2 - phi) + phi * p * (g2 - g1))
    rate = math.log2(_ceiling(psi, g1, g2, phi, p))
    return MaxMinSolution(rate, PowerAllocation((p1, p2)), 0)


def _ceiling(psi, g1, g2, phi, p):
    # (psi - A) / (2 (1 + phi p) (g1 - phi)) with A = (1 + phi p)(g2 - g1),
    # times (psi + A) / (psi + A): psi^2 - A^2 = 4 (1 + phi p)(1 + g1 p)
    # (g1 - phi)(g2 - phi), so no near-equal terms are subtracted when g2 >> g1
    return 2.0 * (1.0 + g1 * p) * (g2 - phi) / (psi + (1.0 + phi * p) * (g2 - g1))


def rate_ceiling_two_user(g1, g2, phi, p, sqrt=math.sqrt):
    """2^rate at the two-user optimum (the budget-limited ceiling b3), on
    floats, or on arrays with sqrt=np.sqrt."""
    return _ceiling(_psi(g1, g2, phi, p, sqrt), g1, g2, phi, p)


def bound_triple(g1: float, g2: float, phi: float, p: float) -> tuple[float, float, float]:
    """The three 2^rate upper bounds that govern the two-user problem:

    b1: the strong user's outage constraint alone (budget-free),
    b2: both outage constraints jointly as the budget grows without limit,
    b3: all constraints plus the finite budget (always the binding one).
    """
    if not (g2 >= g1 > phi > 0.0):
        raise ValueError("need gains above stringency, ascending")
    _check_budget(p)
    b1 = g2 / phi
    # (R - (g2 - g1)) / (2 (g1 - phi)) with R^2 = 4 g1 (g1 - phi)(g2 - phi) / phi
    # + (g2 - g1)^2, times (R + (g2 - g1)) / (R + (g2 - g1)) as in _ceiling
    spread = g2 - g1
    root = math.sqrt(4.0 * g1 * (g1 - phi) * (g2 - phi) / phi + spread * spread)
    b2 = 2.0 * g1 * (g2 - phi) / (phi * (root + spread))
    b3 = _ceiling(_finite_psi(g1, g2, phi, p), g1, g2, phi, p)
    return b1, b2, b3


def optimal_power_ratio_user1(g1: float, g2: float, phi: float, p: float) -> float:
    """Fraction of the budget the weak user receives at the two-user optimum.

    Strictly increasing in phi: a harder secrecy target shifts power toward
    the weak user.
    """
    if not (g2 >= g1 > phi > 0.0):
        raise ValueError("need gains above stringency, ascending")
    _check_budget(p)
    return _weak_power(_finite_psi(g1, g2, phi, p), g1, g2, phi, p) / p
