"""Max-min confidential rate under a total power budget.

The common rate floor is feasible at some level iff the minimum-power problem
at that level fits the budget, and required power is increasing in the floor,
so a bisection on the floor is exact. For two users the optimum also has a
closed form, which doubles as an independent check on the bisection; the
bisection uses it only to place the window it replays around (`_seed`).
"""
from __future__ import annotations

import math

from ._record import record
from .channel import ChannelRealization
from .power_min import InfeasibleReason, InfeasibleVerdict, _recursion
from .secrecy import PowerAllocation, _stringency, _sum

DEFAULT_TOL = 1e-10
# an infinite bracket would never narrow
_BRACKET_OVERFLOW = "the weakest gain times the power budget overflows"
# nor would a bracket of two adjacent floats that is still tol wide
_BRACKET_STALLED = "tolerance finer than the float spacing of the rate: the bracket stopped shrinking"
_TOO_COARSE = "tolerance too coarse to certify a positive rate at this budget"


@record
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
    return _gate(channel, eps)[1] is None


def _gate(channel, eps):
    """(phi, None) where the weakest gain clears the stringency phi (a positive
    common rate exists), else (phi, the verdict naming each failing user)."""
    phi = _stringency(channel.eaves_avg_gain, eps)
    gains = channel.user_gains
    if gains[0] > phi:
        return phi, None
    failing = frozenset(k for k, g in enumerate(gains, 1) if g <= phi)
    return phi, InfeasibleVerdict(failing, InfeasibleReason.POSITIVE_RATE)


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
    phi, verdict = _gate(channel, eps)
    if verdict is not None:
        return verdict
    gains = channel.user_gains
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
    # the seed starts from the optimal-time TDMA rate, a feasible floor
    # unless a stronger user's slot rate overflowed to inf
    rate_opt, rate_eq, hi = _tdma_rates(gains, phi, power_budget_mw)
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


def _slot_rate(gain, phi, p, log2=math.log2, maximum=max):
    """Confidential rate of a TDMA slot at the full budget p, on floats, or on
    arrays with log2 and maximum for arrays: log2((1 + p gain) / (1 + p phi))
    with the ratio floored at 1, so 0.0 also where only p phi overflows."""
    return log2(maximum(1.0, (1.0 + p * gain) / (1.0 + p * phi)))


def _equal_time_rate(slots, users, minimum=min):
    """Common rate of equal-time TDMA: the weakest slot rate over the users."""
    return minimum(slots) / users


def _optimal_time_rate(slots):
    """Common rate 1 / sum(1 / c) of optimal-time TDMA over slot rates c (floats,
    none 0.0, or columns), and its fractions, 1/c in proportion, as a generator:
    they equalize the users' rates, optimal as each is linear in its own."""
    weights = [1.0 / c for c in slots]
    total = _sum(weights)
    return 1.0 / total, (w / total for w in weights)


def _tdma_rates(gains, phi, p):
    """The TDMA rates of `_maxmin` and `compare_maxmin` on one instance's
    ascending gains: (optimal-time rate, equal-time rate, bracket top), both
    rates 0.0 where a slot rate is. Raises where the bracket top overflows."""
    hi = _bracket_top(gains[0], p)
    slots = [_slot_rate(g, phi, p) for g in gains]
    rate_eq = _equal_time_rate(slots, len(slots))
    return (_optimal_time_rate(slots)[0] if rate_eq > 0.0 else 0.0), rate_eq, hi


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


def _fits(gains, phi, power_budget_mw, q):
    """The bisection's exact test on one instance's gains: the floor q has a
    minimum-power solution that fits the budget, its powers added by `_sum`."""
    powers, _, _, _ = _recursion(gains, phi, 2.0 ** q)
    return powers is not None and _sum(powers) <= power_budget_mw


def _seed(gains, phi, power_budget_mw, hi, q):
    """Estimate of the floor at which the budget test switches: log2 of the
    closed-form ceiling for two users, else `_newton`'s. nan if there is none
    (the ceiling reads 0.0 or nan where the closed form overflows)."""
    if len(gains) == 2:
        ceiling = rate_ceiling_two_user(*gains, phi, power_budget_mw, _gap_scale(gains[1], phi, power_budget_mw))
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


def _gap_scale(g2, phi, p):
    """The two-user closed forms depend only on the SNRs g1 p and phi p and on
    the gaps (g1 - phi) s, (g2 - phi) s and (g2 - g1) s, in whose ratios s
    cancels. s is p, so that a common scale of the gains and 1/p changes no
    bit, lifted on floats by the power of two that brings (g2 - phi) s into
    [1/4, 1) where it is smaller, so that no product of two gaps leaves the
    float range at small SNRs. A power of two scales exactly, so the lift
    changes no result where no such product would have. It stops at
    s < 2**1023."""
    lift = min(-math.frexp(g2 - phi)[1], 1023) - math.frexp(p)[1]
    return math.ldexp(p, lift) if lift > 0 else p


def _psi(g1, g2, phi, p, s, sqrt=math.sqrt):
    """s times the square root of the two-user quadratic's discriminant, on
    floats with math.sqrt or on arrays with np.sqrt. Both are correctly
    rounded, and the spread is squared by a product, which numpy rounds as
    Python does (libm's pow(x, 2) need not), so both give the same bits."""
    c = 1.0 + phi * p
    spread = (g2 - g1) * s
    return sqrt(c * (4.0 * (1.0 + g1 * p) * ((g1 - phi) * s) * ((g2 - phi) * s) + c * (spread * spread)))


def _closed_form(g1, g2, phi, p):
    """The public closed forms' checked entry: (psi, s) of `_psi` and
    `_gap_scale`. Raises where psi overflows, which only large SNRs make it
    do, as inf, 0.0 or nan would come out."""
    if not (g2 >= g1 > phi > 0.0):
        raise ValueError("need gains above stringency, ascending")
    _check_budget(p)
    s = _gap_scale(g2, phi, p)
    psi = _psi(g1, g2, phi, p, s)
    if psi == math.inf:
        raise OverflowError("the two-user closed form overflows")
    return psi, s


def _weak_share(psi, s, g1, g2, phi, p):
    """The weak user's share of the budget at the two-user optimum; its power
    is p times this, so that no product with p overflows first."""
    # (B - psi) / (2 D) with B = (1 + phi p)((g1 - phi) s + g1 p (g2 - phi) s + S),
    # S = (1 + g1 p)(g2 - phi) s and D = ((1 + phi p) g1 g2 - phi^2 (1 + g1 p)) p s,
    # times (B + psi) / (B + psi): B^2 - psi^2 = 4 (1 + phi p) S D, so no
    # near-equal terms are subtracted when g1 p is small
    c = 1.0 + phi * p
    strong = (1.0 + g1 * p) * ((g2 - phi) * s)
    return 2.0 * c * strong / (c * ((g1 - phi) * s + g1 * p * ((g2 - phi) * s) + strong) + psi)


def solve_maxmin_two_user(
    channel: ChannelRealization, eps: float, power_budget_mw: float
) -> MaxMinSolution | InfeasibleVerdict:
    """Closed-form two-user optimum: the budget and both outage constraints
    are simultaneously tight, leaving one quadratic in the split."""
    if channel.num_users != 2:
        raise ValueError("closed form is specific to two users")
    _check_budget(power_budget_mw)
    phi, verdict = _gate(channel, eps)
    if verdict is not None:
        return verdict
    return _two_user(*channel.user_gains, phi, power_budget_mw)


def _two_user(g1, g2, phi, p):
    """`solve_maxmin_two_user` past its checks and gate."""
    psi, s = _closed_form(g1, g2, phi, p)
    p1 = p * _weak_share(psi, s, g1, g2, phi, p)
    # p (psi - C) / (2 D) with C = (g1 - phi) s + (g2 - phi) s + phi p (g2 - g1) s,
    # times (psi + C) / (psi + C): psi^2 - C^2 = 4 (g1 - phi) s D
    gap = (g1 - phi) * s
    p2 = p * (2.0 * gap / (psi + gap + (g2 - phi) * s + phi * p * ((g2 - g1) * s)))
    rate = math.log2(_ceiling(psi, s, g1, g2, phi, p))
    return MaxMinSolution(rate, PowerAllocation((p1, p2)), 0)


def _ceiling(psi, s, g1, g2, phi, p):
    # (psi - A) / (2 (1 + phi p)(g1 - phi) s) with A = (1 + phi p)(g2 - g1) s,
    # times (psi + A) / (psi + A): psi^2 - A^2 = 4 (1 + phi p)(1 + g1 p)
    # (g1 - phi)(g2 - phi) s^2, so no near-equal terms are subtracted when g2 >> g1
    return 2.0 * (1.0 + g1 * p) * ((g2 - phi) * s) / (psi + (1.0 + phi * p) * ((g2 - g1) * s))


def rate_ceiling_two_user(g1, g2, phi, p, s, sqrt=math.sqrt):
    """2^rate at the two-user optimum (the budget-limited ceiling b3), its
    gaps scaled by s, on floats, or on arrays with sqrt=np.sqrt."""
    return _ceiling(_psi(g1, g2, phi, p, s, sqrt), s, g1, g2, phi, p)


def bound_triple(g1: float, g2: float, phi: float, p: float) -> tuple[float, float, float]:
    """The three 2^rate upper bounds that govern the two-user problem:

    b1: the strong user's outage constraint alone (budget-free),
    b2: both outage constraints jointly as the budget grows without limit,
    b3: all constraints plus the finite budget (always the binding one).
    """
    b3 = _ceiling(*_closed_form(g1, g2, phi, p), g1, g2, phi, p)
    b1 = g2 / phi
    # (R - (g2 - g1)) / (2 (g1 - phi)) with R^2 = 4 g1 (g1 - phi)(g2 - phi) / phi + (g2 - g1)^2,
    # times (R + (g2 - g1)) / (R + (g2 - g1)) as in _ceiling, each term over phi: ratios only
    spread = (g2 - g1) / phi
    root = math.sqrt(4.0 * (g1 / phi) * ((g1 - phi) / phi) * ((g2 - phi) / phi) + spread * spread)
    b2 = 2.0 * (g1 / phi) * ((g2 - phi) / phi) / (root + spread)
    return b1, b2, b3


def optimal_power_ratio_user1(g1: float, g2: float, phi: float, p: float) -> float:
    """Fraction of the budget the weak user receives at the two-user optimum.

    Strictly increasing in phi: a harder secrecy target shifts power toward
    the weak user.
    """
    return _weak_share(*_closed_form(g1, g2, phi, p), g1, g2, phi, p)
