"""Invariances the model guarantees, checked on random instances.

Only the products of gains and powers, and the ratio of each gain to the
stringency, enter the model. Scaling every user gain and the eavesdropper
gain by c and the budget by 1/c therefore changes no decision; with c a
power of two every float operation scales exactly, so the solvers must
agree bit for bit. The two-user closed forms are written in those SNRs and
ratios, so they must too. And more budget or a looser outage bound never
lowers a max-min rate, nor does a higher QoS floor lower a minimum power.
"""
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secnoma import (
    ChannelRealization,
    MaxMinSolution,
    PowerMinSolution,
    SecrecyRequirement,
    TdmaMinPower,
    bound_triple,
    compare_maxmin,
    optimal_power_ratio_user1,
    select_users,
    solve_maxmin_bisection,
    solve_maxmin_two_user,
    solve_min_power,
    tdma_maxmin,
    tdma_min_power,
)
from secnoma.maxmin import _TOO_COARSE, DEFAULT_TOL

SHARE_TOL = 1e-13


def _outcome(solve, *args):
    """What solve returns, or the type and message of what it raised."""
    try:
        return solve(*args)
    except (ValueError, OverflowError, RuntimeError) as exc:
        return type(exc), str(exc)


def _scaled(design, factor):
    """A design's numbers, with its powers times factor."""
    if isinstance(design, PowerMinSolution):
        return tuple(p * factor for p in design.allocation.powers_mw), design.rate_pairs, design.total_power_mw * factor
    if isinstance(design, MaxMinSolution):
        return design.rate, tuple(p * factor for p in design.allocation.powers_mw), design.iterations_used
    if isinstance(design, TdmaMinPower):
        return tuple(p * factor for p in design.per_user_mw), design.avg_power_mw * factor, design.peak_power_mw * factor
    return design  # a verdict, what the bisection raised, or no solution


def _designs(gains, eaves, q, eps, budget, factor=1.0):
    """Every design of one instance, its powers times factor."""
    channel = ChannelRealization(gains, eaves)
    req = SecrecyRequirement(q, eps)
    selection = select_users(channel, req)
    designs = [
        solve_min_power(channel, req),
        tdma_min_power(channel, q, eps),
        _outcome(solve_maxmin_bisection, channel, eps, budget, DEFAULT_TOL),
    ]
    closed_forms = []
    if len(gains) == 2:
        designs.append(_outcome(solve_maxmin_two_user, channel, eps, budget))
        phi = eaves * math.log(1.0 / eps)
        closed_forms = [_outcome(form, *gains, phi, budget) for form in (bound_triple, optimal_power_ratio_user1)]
    tdma = [tdma_maxmin(channel, eps, budget, mode) for mode in ("equal_time", "optimal_time")]
    return (
        [_scaled(d, factor) for d in designs],
        (selection.selected_users, _scaled(selection.solution, factor)),
        [(t.rate, t.time.fractions) for t in tdma],
        _outcome(compare_maxmin, channel, eps, budget),
        closed_forms,
    )


@st.composite
def _instances(draw):
    # gains over three decades at a scale over twelve, the eavesdropper
    # within a decade or two of the weakest user
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    exponents = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
    gains = tuple(sorted(scale * 10.0**x for x in exponents))
    eaves = scale * 10.0 ** draw(st.floats(-2.0, 1.0))
    q = draw(st.floats(0.01, 3.0))
    eps = draw(st.floats(0.02, 0.6))
    budget = 10.0 ** (draw(st.floats(-20.0, 50.0)) / 10.0)
    return gains, eaves, q, eps, budget


@settings(max_examples=300, deadline=None)
@given(_instances(), st.integers(-1000, 1000))
# gains near 1e-12 whose last denominator, about 5e-13, is feasible; it read
# infeasible when the threshold was absolute
@example(((5e-9, 1e-8), 1e-9, 0.5, 0.3, 1e4), -14)
# equal gains near 1e-161, where the two-user discriminant of the gains
# themselves underflowed to 0: the bisection's closed-form seed divided by
# zero, and the closed forms raised
@example(((1.0, 1.0), 1.0, 1.0, 0.375, 1.0), -534)
# and where it read 0, the weak user's share came out 1.0, not 0.648
@example(((1.0, 1.0), 1.0, 1.0, 0.5, 1.0), -538)
def test_scaling_gains_and_budget_together_changes_nothing(instance, j):
    gains, eaves, q, eps, budget = instance
    c = 2.0**j
    # every scaled input stays a normal float, far from either end
    assume(all(2.0**-1000 < x < 2.0**1000 for x in (*(g * c for g in gains), eaves * c, budget / c)))
    original = _designs(gains, eaves, q, eps, budget, 1.0 / c)
    scaled = _designs(tuple(g * c for g in gains), eaves * c, q, eps, budget / c)
    assert scaled == original


def _weak_share(gains, eaves, eps, budget):
    """The weakest user's share of the max-min allocation, or None if the
    instance carries no positive rate this bisection can certify.

    The allocation is the minimum-power one at the certified rate, which is
    up to tol below the optimum. At the default tol of 1e-10 that can move
    the share more than a relative step of 1e-6 in eps does: at gains
    (1, 1, 1), eavesdropper gain 10**-0.5 and budget 36 dBm, eps 0.25 and
    0.24999975 give shares 9e-12 the wrong way round, and 2.9e-10 the right
    way at tol 1e-12. So the rates here are certified to 1e-13.
    """
    solution = _outcome(solve_maxmin_bisection, ChannelRealization(gains, eaves), eps, budget, SHARE_TOL)
    if not isinstance(solution, MaxMinSolution):
        return None
    powers = solution.allocation.powers_mw
    return powers[0] / sum(powers)


@st.composite
def _eps_pairs(draw):
    # K = 3..6 users over four decades; the two outage bounds from far
    # apart down to a relative gap of 1e-6
    exponents = draw(st.lists(st.floats(0.0, 4.0), min_size=3, max_size=6))
    gains = tuple(sorted(10.0**x for x in exponents))
    eaves = 10.0 ** draw(st.floats(-2.0, 0.0))
    loose = draw(st.floats(0.02, 0.9))
    tight = loose * (1.0 - 10.0 ** draw(st.floats(-6.0, -0.05)))
    budget = 10.0 ** (draw(st.floats(-10.0, 40.0)) / 10.0)
    return gains, eaves, tight, loose, budget


@settings(max_examples=200, deadline=None)
@given(_eps_pairs())
@example(((1.0, 1.0, 1.0), 10.0**-0.5, 0.24999975, 0.25, 10.0**3.6))
def test_weak_user_share_grows_as_the_outage_bound_shrinks(instance):
    # the paper's secrecy finding beyond two users: a tighter outage bound
    # (larger stringency) never moves power away from the weakest user
    gains, eaves, tight, loose, budget = instance
    shares = [_weak_share(gains, eaves, eps, budget) for eps in (tight, loose)]
    assume(None not in shares)
    assert shares[0] >= shares[1]


def _maxmin_rates(gains, eaves, eps, budget):
    """The bisection's max-min rate, 0.0 where it certifies none, and the
    equal- and optimal-time TDMA rates of one instance."""
    channel = ChannelRealization(gains, eaves)
    try:
        solution = solve_maxmin_bisection(channel, eps, budget)
    except ValueError as exc:
        assert str(exc) == _TOO_COARSE
        solution = None
    rate = solution.rate if isinstance(solution, MaxMinSolution) else 0.0
    return rate, *(tdma_maxmin(channel, eps, budget, mode).rate for mode in ("equal_time", "optimal_time"))


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_max_min_rates_do_not_fall_as_the_budget_or_the_outage_bound_grows(instance):
    gains, eaves, _, eps, budget = instance
    # eps is at most 0.6, so 1.2 eps stays an outage bound below 1
    base = _maxmin_rates(gains, eaves, eps, budget)
    for grown in (_maxmin_rates(gains, eaves, eps, 1.5 * budget), _maxmin_rates(gains, eaves, 1.2 * eps, budget)):
        # the bisection certifies its rate only to within its tolerance
        assert grown[0] + DEFAULT_TOL >= base[0]
        assert grown[1] >= base[1] and grown[2] >= base[2]


def _min_powers(gains, eaves, q, eps):
    """The superposition and equal-slot TDMA minimum powers of one
    instance, inf where it is infeasible."""
    channel = ChannelRealization(gains, eaves)
    sic = solve_min_power(channel, SecrecyRequirement(q, eps))
    tdma = tdma_min_power(channel, q, eps)
    return (
        sic.total_power_mw if isinstance(sic, PowerMinSolution) else math.inf,
        tdma.avg_power_mw if isinstance(tdma, TdmaMinPower) else math.inf,
    )


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_min_powers_do_not_fall_as_the_qos_floor_grows(instance):
    gains, eaves, q, eps, _ = instance
    base, grown = _min_powers(gains, eaves, q, eps), _min_powers(gains, eaves, 1.2 * q, eps)
    assert grown[0] >= base[0] and grown[1] >= base[1]
