"""Max-min confidential rate under a total power budget.

The common rate floor is feasible at some level iff the minimum-power problem
at that level fits the budget, and required power is increasing in the floor,
so a bisection on the floor is exact. For two users the optimum also has a
closed form, which doubles as an independent check on the bisection.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .power_min import (
    InfeasibleReason,
    InfeasibleVerdict,
    _recursion,
    _recursion_rows,
    _recursion_slope,
    _recursion_slope_rows,
)
from .secrecy import PowerAllocation, _stringency

DEFAULT_TOL = 1e-10
# an infinite bracket would never narrow
_BRACKET_OVERFLOW = "the weakest gain times the power budget overflows"


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
    certified window around a Newton estimate of the switch are decided
    without a solve (see `_window`); the result is the plain bisection's.
    """
    if not (power_budget_mw > 0 and math.isfinite(power_budget_mw)):
        raise ValueError("power budget must be positive and finite")
    if not (tol > 0):
        raise ValueError("tolerance must be positive")
    if not check_positive_rate_feasibility(channel, eps):
        return _positive_rate_verdict(channel, eps)

    gains = channel.user_gains
    phi = _stringency(channel.eaves_avg_gain, eps)
    lo = 0.0
    hi = math.log2(1.0 + gains[0] * power_budget_mw)
    if hi == math.inf:
        raise OverflowError(_BRACKET_OVERFLOW)
    # the optimal-time TDMA rate (tdma_maxmin's) is a feasible floor
    slots = [_slot_rate_full(g, phi, power_budget_mw) for g in gains]
    floor = 1.0 / sum(1.0 / c for c in slots) if min(slots) > 0.0 else 0.0
    lo_e, hi_e = _window(gains, phi, power_budget_mw, hi, floor)
    iterations = 0
    while hi - lo >= tol:
        iterations += 1
        q = 0.5 * (lo + hi)
        if q <= lo_e or (q < hi_e and _fits(gains, phi, power_budget_mw, q)):
            lo = q
        else:
            hi = q
    if lo == 0.0:
        raise ValueError("tolerance too coarse to certify a positive rate at this budget")
    powers, _, _ = _recursion(gains, phi, 2.0 ** lo)
    return MaxMinSolution(lo, PowerAllocation(tuple(powers)), iterations)


def _slot_rate_full(gain, phi, p):
    # per-slot confidential rate of one TDMA user before time scaling, clipped at zero
    return max(0.0, math.log2((1.0 + p * gain) / (1.0 + p * phi)))


# The bisection's result depends only on where its float feasibility test
# switches from accept to reject. A Newton estimate r of that switch, checked
# by two exact tests at r -/+ _WINDOW, lets every midpoint outside that
# window be decided by a compare: the test is taken as monotone at this
# distance from its switch. _WINDOW is absolute in q = log2(rho), which has no
# units, and dwarfs the seed's own distance from the switch (at most about
# 2e-15 on random instances with K = 1..8 and gains over twelve decades).
_WINDOW = 1e-11
_NEWTON_EVALS = 16
_NEWTON_STOP = 1e-13
_LN2 = math.log(2.0)


def _fits(gains, phi, power_budget_mw, q):
    """The bisection's exact test: the floor q has a minimum-power solution
    that fits the budget."""
    powers, _, _ = _recursion(gains, phi, 2.0 ** q)
    return powers is not None and sum(powers) <= power_budget_mw


def _seed(gains, phi, power_budget_mw, hi, q):
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
        found = _recursion_slope(gains, phi, rho)
        if found is None or found[0] > power_budget_mw:
            if feasible:
                return q
            q *= 0.5
            continue
        feasible = True
        total, slope = found
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


# Element-wise libm calls: numpy's SIMD power and log2 can round differently
# from Python's `**` and math.log2, and the row solvers must reproduce the
# scalar solvers bit for bit. Reading through a memoryview makes one Python
# float at a time instead of a list of them all.
def _pow2_each(q):
    return np.fromiter(map(math.pow, itertools.repeat(2.0), memoryview(q.ravel())), float, q.size)


def _log2_each(x):
    return np.fromiter(map(math.log2, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def _sum_rows(a):
    """Row sums of an (M, K) array in Python sum()'s order, column 0 first."""
    total = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        total += a[:, k]
    return total


def _fits_rows(gains, phi, pad, power_budget_mw, q):
    """`_fits` on every row, with one floor per row in q."""
    powers, ok = _recursion_rows(gains, phi, _pow2_each(q), pad)
    with np.errstate(invalid="ignore"):  # rows that failed may hold inf - inf
        return ok & (_sum_rows(powers) <= power_budget_mw)


def _seed_rows(gains, phi, pad, power_budget_mw, hi, q):
    """`_seed` on every row, with numpy's exp2 for 2**q: the seed only
    places the window, so it need not round like the exact test."""
    seed = np.full(len(q), np.nan)
    rows = np.arange(len(q))
    feasible = np.zeros(len(q), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_EVALS):
            keep = (0.0 < q) & (q < hi)
            if not keep.all():
                rows, gains, phi, pad, hi, q, feasible = (
                    a[keep] for a in (rows, gains, phi, pad, hi, q, feasible)
                )
            if not rows.size:
                break
            rho = np.exp2(q)
            total, slope, ok = _recursion_slope_rows(gains, phi, rho, pad)
            fits = ok & (total <= power_budget_mw)
            step = total * (1.0 - total / power_budget_mw) / (slope * rho * _LN2)
            ahead = q + step
            settled = np.where(fits, step < _NEWTON_STOP * np.maximum(1.0, ahead), feasible)
            seed[rows[settled]] = np.where(fits, ahead, q)[settled]
            q = np.where(settled, 0.0, np.where(fits, ahead, 0.5 * q))
            feasible |= fits
    return seed


def _window_rows(gains, phi, pad, power_budget_mw, hi, floor):
    """`_window` on every row."""
    r = _seed_rows(gains, phi, pad, power_budget_mw, hi, floor)
    lo_e, hi_e = r - _WINDOW, r + _WINDOW
    certified = (0.0 < lo_e) & (hi_e < hi)
    rows = np.flatnonzero(certified)
    gains, phi, pad = gains[rows], phi[rows], pad[rows]
    accepts_lo = _fits_rows(gains, phi, pad, power_budget_mw, lo_e[rows])
    certified[rows] = accepts_lo & ~_fits_rows(gains, phi, pad, power_budget_mw, hi_e[rows])
    return np.where(certified, lo_e, -np.inf), np.where(certified, hi_e, np.inf)


def _bisect_rows(gains, phi, power_budget_mw, tol, floor):
    """`solve_maxmin_bisection` on every row of an (M, K) gain matrix in
    lockstep, with one stringency per row in phi and one feasible floor per
    row in floor (the optimal-time TDMA rate); every row's weakest gain must
    clear its phi. Returns the M certified rates, equal bit for bit to the
    scalar solver's.

    A row with fewer than K users holds its gains, ascending, in its last
    columns and +inf in the leading ones. Each row keeps its own bracket. A
    floor is accepted by raising lo to it, so lo is the last accepted floor,
    or 0.0 if there was none. Every row first replays its midpoints by
    compares alone until one falls inside its window; only such rows then
    take an exact step, and a row leaves once its bracket is narrower than
    tol.
    """
    if not (power_budget_mw > 0 and math.isfinite(power_budget_mw)):
        raise ValueError("power budget must be positive and finite")
    if not (tol > 0):
        raise ValueError("tolerance must be positive")
    pad = np.isinf(gains[:, :-1])
    pad = pad[:, : int(pad.any(axis=0).sum())]  # padding is a column prefix
    with np.errstate(over="ignore"):
        hi = _log2_each(1.0 + gains.min(axis=1) * power_budget_mw)
    if (hi == np.inf).any():
        raise OverflowError(_BRACKET_OVERFLOW)
    lo_e, hi_e = _window_rows(gains, phi, pad, power_budget_mw, hi, floor)
    rate = np.empty(len(gains))
    active = np.arange(len(gains))
    lo = np.zeros(len(gains))
    while True:
        # decide by compares every midpoint outside its row's window
        while True:
            live = hi - lo >= tol
            q = 0.5 * (lo + hi)
            below = live & (q <= lo_e)
            above = live & (q >= hi_e)
            if not (below.any() or above.any()):
                break
            np.copyto(lo, q, where=below)
            np.copyto(hi, q, where=above)
        if not live.all():
            done = ~live
            rate[active[done]] = lo[done]
            active, gains, phi, pad = active[live], gains[live], phi[live], pad[live]
            lo, hi, lo_e, hi_e, q = lo[live], hi[live], lo_e[live], hi_e[live], q[live]
        if not active.size:
            break
        # every midpoint left lies inside its window: one exact step
        accept = _fits_rows(gains, phi, pad, power_budget_mw, q)
        lo = np.where(accept, q, lo)
        hi = np.where(accept, hi, q)
    if not (rate > 0.0).all():
        raise ValueError("tolerance too coarse to certify a positive rate at this budget")
    return rate


def _psi(g1, g2, phi, p):
    return math.sqrt(
        (1.0 + phi * p)
        * (4.0 * (1.0 + g1 * p) * (g1 - phi) * (g2 - phi) + (1.0 + phi * p) * (g2 - g1) ** 2)
    )


def _split_terms(g1, g2, phi, p):
    """psi, the numerator of the weak user's optimal power, and the bracketed
    factor of its denominator (2 * factor for the power, 2 * p * factor for
    the budget share)."""
    psi = _psi(g1, g2, phi, p)
    num = (1.0 + phi * p) * (g2 + g1 * (1.0 + 2.0 * g2 * p) - 2.0 * phi * (1.0 + g1 * p)) - psi
    return psi, num, (1.0 + phi * p) * g1 * g2 - phi * phi * (1.0 + g1 * p)


def solve_maxmin_two_user(
    channel: ChannelRealization, eps: float, power_budget_mw: float
) -> MaxMinSolution | InfeasibleVerdict:
    """Closed-form two-user optimum: the budget and both outage constraints
    are simultaneously tight, leaving one quadratic in the split."""
    if channel.num_users != 2:
        raise ValueError("closed form is specific to two users")
    if not (power_budget_mw > 0 and math.isfinite(power_budget_mw)):
        raise ValueError("power budget must be positive and finite")
    if not check_positive_rate_feasibility(channel, eps):
        return _positive_rate_verdict(channel, eps)

    g1, g2 = channel.user_gains
    phi = _stringency(channel.eaves_avg_gain, eps)
    p = power_budget_mw
    psi, num, core = _split_terms(g1, g2, phi, p)
    den = 2.0 * core
    p1 = num / den
    p2 = (psi - (g1 + g2) - phi * (g2 * p - g1 * p - 2.0)) / den
    rate = math.log2(_ceiling(psi, g1, g2, phi, p))
    return MaxMinSolution(rate, PowerAllocation((p1, p2)), 0)


def _ceiling(psi, g1, g2, phi, p):
    return (psi - (1.0 + phi * p) * (g2 - g1)) / (2.0 * (1.0 + phi * p) * (g1 - phi))


def rate_ceiling_two_user(g1, g2, phi, p):
    """2^rate at the two-user optimum (the budget-limited ceiling b3)."""
    return _ceiling(_psi(g1, g2, phi, p), g1, g2, phi, p)


def bound_triple(g1: float, g2: float, phi: float, p: float) -> tuple[float, float, float]:
    """The three 2^rate upper bounds that govern the two-user problem:

    b1: the strong user's outage constraint alone (budget-free),
    b2: both outage constraints jointly as the budget grows without limit,
    b3: all constraints plus the finite budget (always the binding one).
    """
    if not (g2 >= g1 > phi > 0.0):
        raise ValueError("need gains above stringency, ascending")
    b1 = g2 / phi
    inner = 4.0 * phi * phi * g1 - 3.0 * phi * g1 * g1 - 6.0 * phi * g1 * g2 + 4.0 * g1 * g1 * g2 + phi * g2 * g2
    b2 = (math.sqrt(inner / phi) - (g2 - g1)) / (2.0 * (g1 - phi))
    b3 = rate_ceiling_two_user(g1, g2, phi, p)
    return b1, b2, b3


def optimal_power_ratio_user1(g1: float, g2: float, phi: float, p: float) -> float:
    """Fraction of the budget the weak user receives at the two-user optimum.

    Strictly increasing in phi: a harder secrecy target shifts power toward
    the weak user.
    """
    if not (g2 >= g1 > phi > 0.0):
        raise ValueError("need gains above stringency, ascending")
    if not (p > 0):
        raise ValueError("budget must be positive")
    _, num, core = _split_terms(g1, g2, phi, p)
    return num / (2.0 * p * core)
