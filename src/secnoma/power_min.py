"""Minimum-power allocation meeting a per-user confidential QoS floor.

Every outage constraint is active at the optimum, which collapses the problem
to a backward recursion from the strongest user: each power is a closed-form
function of the total already assigned to stronger users. Feasibility is a
set of strict denominator conditions checked as the recursion proceeds.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._lazy import lazy_module
from .channel import ChannelRealization
from .secrecy import PowerAllocation, RatePair, SecrecyRequirement, _outage_terms, max_codeword_rate

np = lazy_module("numpy")

# denominators this close to zero mean the required power diverges
DENOM_TOL = 1e-12


class InfeasibleReason(enum.Enum):
    USER_CONDITION_INNER = "user_condition_k"
    USER_CONDITION_LAST = "user_condition_K"
    POSITIVE_RATE = "positive_rate"
    TDMA_QOS = "tdma_qos"


@dataclass(frozen=True)
class InfeasibleVerdict:
    """No finite power satisfies the constraints; names the users that fail."""

    failing_user_indices: frozenset[int]
    reason: InfeasibleReason

    def __post_init__(self):
        if not self.failing_user_indices:
            raise ValueError("an infeasibility verdict must name at least one user")


@dataclass(frozen=True)
class PowerMinSolution:
    allocation: PowerAllocation
    rate_pairs: tuple[RatePair, ...]
    total_power_mw: float


def constraint_ratio(gain: float, q: float, own_power: float, interference_power: float) -> float:
    """Largest stringency phi for which (own_power, interference_power) still
    meets the outage constraint of one user with the given gain and QoS q.

    Increasing in own_power and decreasing in interference_power on the
    region where the QoS itself is met.
    """
    num, den = _outage_terms(gain, own_power, interference_power, q)
    if den <= 0.0:
        raise ValueError("degenerate constraint: no positive stringency bound")
    return num / den


def _recursion(gains, phi, rho):
    """Backward power recursion. Returns (powers, None, None) on success or
    (None, failing_user, reason) at the first denominator failure."""
    num = len(gains)
    powers = [0.0] * num
    den_last = gains[num - 1] - phi * rho
    if den_last <= DENOM_TOL:
        return None, num, InfeasibleReason.USER_CONDITION_LAST
    powers[num - 1] = (rho - 1.0) / den_last
    suffix = powers[num - 1]
    for k in range(num - 1, 0, -1):
        g = gains[k - 1]
        den = g * (1.0 - phi * (rho - 1.0) * suffix) - phi * rho
        if den <= DENOM_TOL:
            return None, k, InfeasibleReason.USER_CONDITION_INNER
        powers[k - 1] = (rho - 1.0) * (1.0 + phi * suffix) * (1.0 + g * suffix) / den
        suffix += powers[k - 1]
    return powers, None, None


def _recursion_rows(gains, phi, rho, pad=None):
    """`_recursion` on every row of an (M, K) gain matrix at once, with one phi
    and one rho per row. Returns (powers, ok): powers of rows where ok is False
    are meaningless. Same operations in the same order as the scalar version,
    so feasible rows match it bit for bit.

    pad, if given, is an (M, W) mask of the leading columns that hold no user
    (a row with fewer users sits in the last columns): such a column gets
    exactly 0.0 power and never fails, so row sums are unchanged.
    """
    num = gains.shape[1]
    padded = 0 if pad is None else pad.shape[1]
    powers = np.empty_like(gains)
    rho_m1 = rho - 1.0
    phi_rho = phi * rho
    phi_rho_m1 = phi * rho_m1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = gains[:, num - 1] - phi_rho
        ok = den > DENOM_TOL
        suffix = rho_m1 / den
        powers[:, num - 1] = suffix
        for k in range(num - 1, 0, -1):
            g = gains[:, k - 1]
            den = g * (1.0 - phi_rho_m1 * suffix) - phi_rho
            power = rho_m1 * (1.0 + phi * suffix) * (1.0 + g * suffix) / den
            if k - 1 < padded:
                ok &= (den > DENOM_TOL) | pad[:, k - 1]
                power[pad[:, k - 1]] = 0.0
            else:
                ok &= den > DENOM_TOL
            powers[:, k - 1] = power
            suffix += power
    return powers, ok


# Forward-mode derivatives of the recursion in rho: each power's tangent is
# carried beside it through the same steps. They steer the max-min Newton
# seed only, never a feasibility verdict.
def _recursion_slope(gains, phi, rho):
    """Total power of `_recursion` and its derivative in rho, or None where
    `_recursion` fails."""
    num = len(gains)
    rho_m1 = rho - 1.0
    den = gains[num - 1] - phi * rho
    if den <= DENOM_TOL:
        return None
    suffix = rho_m1 / den
    slope = (gains[num - 1] - phi) / den / den
    for k in range(num - 1, 0, -1):
        g = gains[k - 1]
        den = g * (1.0 - phi * rho_m1 * suffix) - phi * rho
        if den <= DENOM_TOL:
            return None
        d_den = -g * phi * (suffix + rho_m1 * slope) - phi
        own, cross = 1.0 + phi * suffix, 1.0 + g * suffix
        power = rho_m1 * own * cross / den
        slope += (own * cross + rho_m1 * slope * (phi * cross + g * own) - power * d_den) / den
        suffix += power
    return suffix, slope


def _recursion_slope_rows(gains, phi, rho, pad):
    """`_recursion_slope` on every row of an (M, K) gain matrix, with pad as
    in `_recursion_rows`. Returns (total, slope, ok); totals and slopes of
    rows where ok is False are meaningless."""
    num = gains.shape[1]
    padded = pad.shape[1]
    rho_m1 = rho - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = gains[:, num - 1] - phi * rho
        ok = den > DENOM_TOL
        suffix = rho_m1 / den
        slope = (gains[:, num - 1] - phi) / den / den
        for k in range(num - 1, 0, -1):
            g = gains[:, k - 1]
            den = g * (1.0 - phi * rho_m1 * suffix) - phi * rho
            d_den = -g * phi * (suffix + rho_m1 * slope) - phi
            own, cross = 1.0 + phi * suffix, 1.0 + g * suffix
            power = rho_m1 * own * cross / den
            d_power = (own * cross + rho_m1 * slope * (phi * cross + g * own) - power * d_den) / den
            if k - 1 < padded:
                ok &= (den > DENOM_TOL) | pad[:, k - 1]
                power[pad[:, k - 1]] = 0.0
                d_power[pad[:, k - 1]] = 0.0
            else:
                ok &= den > DENOM_TOL
            suffix += power
            slope += d_power
    return suffix, slope, ok


def solve_min_power(
    channel: ChannelRealization, req: SecrecyRequirement
) -> PowerMinSolution | InfeasibleVerdict:
    """Closed-form minimum total power under per-user (QoS, outage) constraints.

    Recursion runs from the strongest user down; the verdict on infeasibility
    names the first user whose denominator condition fails (every weaker user
    would fail as well).
    """
    phi = req.stringency(channel)
    rho = 2.0 ** req.qos_rate
    powers, failing, reason = _recursion(channel.user_gains, phi, rho)
    if powers is None:
        return InfeasibleVerdict(frozenset({failing}), reason)

    alloc = PowerAllocation(tuple(powers))
    pairs = tuple(
        RatePair(max_codeword_rate(channel, alloc, k), req.qos_rate)
        for k in range(1, channel.num_users + 1)
    )
    return PowerMinSolution(alloc, pairs, alloc.total_mw)


@dataclass(frozen=True)
class UserSelection:
    """Greedy admissible subset (original 1-based indices, ascending gain) and
    the minimum-power solution on that subset; empty means suspend."""

    selected_users: tuple[int, ...]
    solution: PowerMinSolution | None


def select_users(channel: ChannelRealization, req: SecrecyRequirement) -> UserSelection:
    """Drop users that can never meet the constraints, then admit the rest
    best-gain first while the joint problem stays feasible.

    Each greedy trial is a strongest-first suffix of the eligible users, and
    the backward recursion on a longer suffix repeats the shorter one's
    powers, so one recursion over all eligible users finds where admission
    stops: just above the first user whose condition fails.
    """
    phi = req.stringency(channel)
    rho = 2.0 ** req.qos_rate
    threshold = phi * rho
    eligible = [k for k in range(1, channel.num_users + 1) if channel.user_gains[k - 1] > threshold]
    if not eligible:
        return UserSelection((), None)
    _, failing, _ = _recursion([channel.user_gains[k - 1] for k in eligible], phi, rho)
    selected = tuple(eligible[failing or 0 :])
    if not selected:
        return UserSelection((), None)
    sub = ChannelRealization(tuple(channel.user_gains[k - 1] for k in selected), channel.eaves_avg_gain)
    return UserSelection(selected, solve_min_power(sub, req))
