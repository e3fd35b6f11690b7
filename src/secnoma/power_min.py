"""Minimum-power allocation meeting a per-user confidential QoS floor.

Every outage constraint is active at the optimum, which collapses the problem
to a backward recursion from the strongest user: each power is a closed-form
function of the total already assigned to stronger users. Feasibility is a
set of strict denominator conditions checked as the recursion proceeds.
"""
from __future__ import annotations

import enum
import math

from ._record import record
from .channel import ChannelRealization
from .secrecy import PowerAllocation, RatePair, SecrecyRequirement, _outage_terms, _sum

# denominators this close to zero, relative to the user's gain, mean the
# required power diverges
DENOM_TOL = 1e-12


class InfeasibleReason(enum.Enum):
    USER_CONDITION_INNER = "user_condition_k"
    USER_CONDITION_LAST = "user_condition_K"
    POSITIVE_RATE = "positive_rate"
    TDMA_QOS = "tdma_qos"


@record
class InfeasibleVerdict:
    """No finite power satisfies the constraints; names the users that fail."""

    failing_user_indices: frozenset[int]
    reason: InfeasibleReason

    def __post_init__(self):
        if not self.failing_user_indices:
            raise ValueError("an infeasibility verdict must name at least one user")


@record
class PowerMinSolution:
    """Cheapest allocation meeting every QoS floor, its wiretap rate pairs and total mW."""

    allocation: PowerAllocation
    rate_pairs: tuple[RatePair, ...]
    total_power_mw: float


def constraint_ratio(gain: float, q: float, own_power: float, interference_power: float) -> float:
    """Largest stringency phi for which (own_power, interference_power) still
    meets the outage constraint of one user with the given gain and QoS q.

    Increasing in own_power and decreasing in interference_power on the
    region where the QoS itself is met.
    """
    if not all(map(math.isfinite, (gain, q, own_power, interference_power))):
        raise ValueError("gain, rate and powers must be finite")
    num, den = _outage_terms(gain, own_power, interference_power, q)
    if den <= 0.0:
        raise ValueError("degenerate constraint: no positive stringency bound")
    return num / den


def _alone(g, phi_rho, rho_m1, rows=False):
    """The power of a user whom no stronger user interferes with (the
    recursion's strongest user, or a TDMA slot): (rho - 1) / den with
    den = g - phi rho, which must exceed DENOM_TOL * g. Returns (power, den,
    ok). On one gain a failing user gets power None, before any division;
    with rows, ok is the mask of rows that pass."""
    den = g - phi_rho
    ok = den > DENOM_TOL * g
    if not (rows or ok):
        return None, den, ok
    return rho_m1 / den, den, ok


def _recursion(cols, phi, rho, pad=None, tangent=False):
    """Backward power recursion from the strongest user over K gain columns,
    weakest first: floats for one instance, or (M,) arrays for M rows at
    once (`gains.T`), with one phi and one rho per row. Each user's
    denominator must exceed DENOM_TOL times its own gain, so the test does
    not depend on the units of the gains.

    Returns (powers, total, slope, ok): the K powers, weakest first, or
    None with tangent, whose callers need only their sum; that sum,
    strongest first; with tangent, the derivative of that sum in rho
    (forward mode: each power's tangent is carried beside it through the
    same steps; it steers the max-min Newton seed only, never a verdict),
    else None; and whether every condition holds, a mask on
    rows (the other outputs of its False rows are meaningless). One
    instance instead stops at the first user whose condition fails and
    returns (None, None, None, k) with that user's 1-based index k. Rows
    and instances take the same operations in the same order, so they
    agree bit for bit.

    pad is an (M, W) mask of the leading columns that hold no user (a row
    with fewer users sits in the last columns; W may be 0): such a column
    gets exactly 0.0 power and slope and never fails, so row sums are
    unchanged. Without pad the columns are one instance, and numpy is
    never loaded. Rows that fail may divide by zero or overflow on their
    way, so call it on rows under `np.errstate` that ignores those.
    """
    scalar = pad is None
    num = len(cols)
    padded = 0 if scalar else pad.shape[1]
    rho_m1 = rho - 1.0
    phi_rho = phi * rho
    phi_rho_m1 = phi * rho_m1
    g = cols[num - 1]
    suffix, den, ok = _alone(g, phi_rho, rho_m1, not scalar)
    if suffix is None:
        return None, None, None, num
    powers = None if tangent else [suffix] * num
    slope = (g - phi) / den / den if tangent else None
    for k in range(num - 2, -1, -1):
        g = cols[k]
        den = g * (1.0 - phi_rho_m1 * suffix) - phi_rho
        fits = den > DENOM_TOL * g
        if scalar:
            if not fits:
                return None, None, None, k + 1
        else:
            ok &= (fits | pad[:, k]) if k < padded else fits
        own, cross = 1.0 + phi * suffix, 1.0 + g * suffix
        power = rho_m1 * own * cross / den
        if k < padded:
            power[pad[:, k]] = 0.0
        if tangent:
            d_den = -g * phi * (suffix + rho_m1 * slope) - phi
            d_power = (own * cross + rho_m1 * slope * (phi * cross + g * own) - power * d_den) / den
            if k < padded:
                d_power[pad[:, k]] = 0.0
            slope = slope + d_power
        else:
            powers[k] = power
        suffix = suffix + power
    return powers, suffix, slope, ok


def solve_min_power(
    channel: ChannelRealization, req: SecrecyRequirement
) -> PowerMinSolution | InfeasibleVerdict:
    """Closed-form minimum total power under per-user (QoS, outage) constraints.

    Recursion runs from the strongest user down; the verdict on infeasibility
    names the first user whose denominator condition fails (every weaker user
    would fail as well).
    """
    phi = req.stringency(channel)
    powers, _, _, failing = _recursion(channel.user_gains, phi, 2.0 ** req.qos_rate)
    if powers is None:
        last = failing == channel.num_users
        reason = InfeasibleReason.USER_CONDITION_LAST if last else InfeasibleReason.USER_CONDITION_INNER
        return InfeasibleVerdict(frozenset({failing}), reason)
    return _solution(channel.user_gains, powers, req.qos_rate)


def _solution(gains, powers, q):
    """The solution of the recursion's powers on ascending gains, with
    `max_codeword_rate`'s rate pairs in one pass: codeword rate k is
    log2((1 + g_k (s + p_k)) / (1 + g_k s)), s the stronger users' powers
    added as `_suffix_power` adds them."""
    alloc = PowerAllocation(tuple(powers))
    pairs = []
    for k, (g, p) in enumerate(zip(gains, powers), 1):
        s = _sum(powers[k:])
        pairs.append(RatePair(math.log2((1.0 + g * (s + p)) / (1.0 + g * s)), q))
    return PowerMinSolution(alloc, tuple(pairs), alloc.total_mw)


@record
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
    stops, just above the first user whose condition fails, and gives the
    solution's powers. Only when it stops early does the recursion run once
    more, on the admitted users alone, for their powers.
    """
    phi = req.stringency(channel)
    rho = 2.0 ** req.qos_rate
    threshold = phi * rho
    # gains ascend, so the eligible users are the strongest ones
    gains = [g for g in channel.user_gains if g > threshold]
    while gains:
        powers, _, _, failing = _recursion(gains, phi, rho)
        if powers is not None:
            selected = tuple(range(channel.num_users - len(gains) + 1, channel.num_users + 1))
            return UserSelection(selected, _solution(gains, powers, req.qos_rate))
        gains = gains[failing:]
    return UserSelection((), None)
