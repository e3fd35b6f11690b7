"""Orthogonal (time-division) benchmark under the same secrecy model.

Each user gets a time fraction and the full power budget inside its slot, so
per-slot rates carry the same stringency penalty and scale by the fraction.
"""
from __future__ import annotations

import math

from ._record import record
from .channel import ChannelRealization, _require_integer
from .maxmin import (
    _TOO_COARSE, DEFAULT_TOL, _bracket_top, _check_budget, _equal_time_rate, _gate, _maxmin, _optimal_time_rate,
    _slot_rate, _tdma_rates, _two_user,
)
from .power_min import InfeasibleReason, InfeasibleVerdict, _alone
from .secrecy import _stringency, _sum

_INFEASIBLE = "instance infeasible: no positive common rate exists"
_NO_TDMA_RATE = "optimal-time TDMA has no positive rate at this budget: the ratio is undefined"


@record
class TimeAllocation:
    """Slot fractions, one per user; they may not exceed a unit frame."""

    fractions: tuple[float, ...]

    def __post_init__(self):
        if len(self.fractions) == 0:
            raise ValueError("need at least one slot")
        for t in self.fractions:
            if not (t >= 0 and math.isfinite(t)):
                raise ValueError("slot fractions must be nonnegative and finite")
        # an exact sum: K copies of 1/K added left to right exceed 1 + 1e-12 at
        # K = 40,000; finite fractions whose sum overflows do not fit either
        try:
            fits = math.fsum(self.fractions) <= 1.0 + 1e-12
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError("slot fractions must fit in a unit frame")


@record
class TdmaMaxMin:
    """Best common confidential rate under TDMA and the slot fractions achieving it."""

    rate: float
    time: TimeAllocation


@record
class TdmaMinPower:
    """Per-slot powers plus the two honest summaries of 'how much power':
    averaged over the frame and the worst single slot."""

    per_user_mw: tuple[float, ...]
    avg_power_mw: float
    peak_power_mw: float


def tdma_user_rate(gain: float, eaves_avg_gain: float, eps: float, p_mw: float, t: float) -> float:
    """Confidential rate of one user given its slot fraction and full-budget
    transmission inside the slot."""
    if not (0 < gain < math.inf and 0 < eaves_avg_gain < math.inf):
        raise ValueError("gain and eavesdropper gain must be positive and finite")
    _check_budget(p_mw)
    if not (0.0 <= t <= 1.0):
        raise ValueError("slot fraction must lie in [0, 1]")
    phi = _stringency(eaves_avg_gain, eps)
    return t * _slot_rate(gain, phi, p_mw)


def tdma_maxmin(channel: ChannelRealization, eps: float, p_mw: float, mode: str) -> TdmaMaxMin:
    """Best common rate under TDMA.

    mode 'equal_time': fixed 1/K slots, the weakest user binds.
    mode 'optimal_time': slots chosen to equalize the per-user rates
    (inverse per-slot-rate weighting), which is optimal because each rate is
    linear and increasing in its own fraction.

    If any user cannot sustain a positive per-slot rate the common rate is 0;
    equal slots are reported in that case. If the weakest user's gain times
    the budget overflows, an OverflowError is raised, as the max-min
    bisection does.
    """
    if mode not in ("equal_time", "optimal_time"):
        raise ValueError("mode must be 'equal_time' or 'optimal_time'")
    _check_budget(p_mw)
    phi = _stringency(channel.eaves_avg_gain, eps)
    num = channel.num_users
    _bracket_top(channel.user_gains[0], p_mw)  # raises as the bisection does
    slots = [_slot_rate(g, phi, p_mw) for g in channel.user_gains]
    rate = _equal_time_rate(slots, num)
    if mode == "optimal_time" and rate > 0.0:
        rate, fractions = _optimal_time_rate(slots)
        return TdmaMaxMin(rate, TimeAllocation(tuple(fractions)))
    # equal slots, also when optimal time has no positive rate (0.0)
    return TdmaMaxMin(rate, TimeAllocation((1.0 / num,) * num))


def tdma_min_power(
    channel: ChannelRealization, q: float, eps: float
) -> TdmaMinPower | InfeasibleVerdict:
    """Cheapest equal-slot TDMA meeting the same per-user QoS floor.

    With a 1/K slot each user must hit K*q per slot; the per-slot power then
    has the same single-user closed form as the superposition scheme's
    strongest user: each slot takes the recursion's one-user step (`_alone`).
    """
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("QoS rate must be positive and finite")
    phi = _stringency(channel.eaves_avg_gain, eps)
    num = channel.num_users
    rho = 2.0 ** (num * q)
    phi_rho, rho_m1 = phi * rho, rho - 1.0
    per_user = tuple(_alone(g, phi_rho, rho_m1)[0] for g in channel.user_gains)
    failing = frozenset(k for k, power in enumerate(per_user, 1) if power is None)
    if failing:
        return InfeasibleVerdict(failing, InfeasibleReason.TDMA_QOS)
    return TdmaMinPower(per_user, _sum(per_user) / num, max(per_user))


@record
class MaxMinComparison:
    """Max-min rates of superposition and of optimal-time and equal-time TDMA, and the
    ratio of superposition to optimal-time TDMA."""

    rate_noma: float
    rate_tdma_optimal: float
    rate_tdma_equal: float
    ratio: float


def compare_maxmin(channel: ChannelRealization, eps: float, p_mw: float) -> MaxMinComparison:
    """Max-min rates of superposition vs TDMA on one feasible instance.

    Raises if the instance cannot carry a positive rate, if optimal-time
    TDMA rounds to none (the ratio is then undefined), or if the expected
    ordering (superposition strictly ahead unless all gains are equal; within
    the bisection tolerance when the bisection produced the rate) fails,
    since that would mean a solver bug rather than a modelling outcome.
    """
    _check_budget(p_mw)
    phi, feasible = _gate(channel, eps)
    if not feasible:
        raise ValueError(_INFEASIBLE)
    gains = channel.user_gains
    if channel.num_users == 2:
        rate, iterations = _two_user(*gains, phi, p_mw).rate, 0
        rate_opt, rate_eq, _ = _tdma_rates(gains, phi, p_mw)
    else:
        # solve_maxmin_bisection's kernel, with no allocation
        rate, rate_opt, rate_eq, iterations = _maxmin(gains, phi, p_mw, DEFAULT_TOL)
        if rate == 0.0:
            raise ValueError(_TOO_COARSE)

    lo, hi = gains[0], gains[-1]
    # the bisection certifies the optimum only to within its tolerance
    slack = DEFAULT_TOL if iterations > 0 else 0.0
    if (hi - lo) / lo > 1e-6 and not (rate + slack > rate_opt):
        raise RuntimeError("superposition failed to beat optimal TDMA on unequal gains")
    if hi == lo and abs(rate - rate_opt) > 1e-8:
        raise RuntimeError("equal gains must equalize superposition and optimal TDMA")
    if rate_opt == 0.0:
        raise ValueError(_NO_TDMA_RATE)
    return MaxMinComparison(rate, rate_opt, rate_eq, rate / rate_opt)


@record
class RateRegionBoundary:
    """Sampled two-user boundaries: rows are (R1, R2) with R2 swept upward."""

    noma: np.ndarray
    tdma: np.ndarray


def noma_rate_region_boundary(
    channel: ChannelRealization, eps: float, p_mw: float, samples: int = 201
) -> RateRegionBoundary:
    """Two-user achievable boundaries at a fixed budget.

    Superposition sweeps the strong user's power share from 0 to the full
    budget; TDMA sweeps the strong user's slot fraction over [0, 1]. The
    endpoints of the two curves coincide (single-user operation either way).
    A budget at which the rate products overflow raises an OverflowError.
    """
    if channel.num_users != 2:
        raise ValueError("rate region is specific to two users")
    _require_integer("samples", samples)
    if samples < 3:
        raise ValueError("need at least 3 samples")
    _check_budget(p_mw)
    phi, feasible = _gate(channel, eps)
    if not feasible:
        raise ValueError("instance infeasible: the region degenerates to the origin")
    g1, g2 = channel.user_gains
    p = float(p_mw)
    # the largest products below, each at p2 = p
    if max((1.0 + g1 * p) * (1.0 + phi * p), 1.0 + g2 * p) == math.inf:
        raise OverflowError("the rate region's products overflow")

    import numpy as np

    p2 = np.linspace(0.0, p, samples)
    r1 = np.log2((1.0 + g1 * p) * (1.0 + phi * p2) / ((1.0 + g1 * p2) * (1.0 + phi * p)))
    r2 = _slot_rate(g2, phi, p2, np.log2, np.maximum)
    noma = np.column_stack([r1, r2])

    c1 = _slot_rate(g1, phi, p)
    c2 = _slot_rate(g2, phi, p)
    t2 = np.linspace(0.0, 1.0, samples)
    tdma = np.column_stack([(1.0 - t2) * c1, t2 * c2])
    return RateRegionBoundary(noma, tdma)
