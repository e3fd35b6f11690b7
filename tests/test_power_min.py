import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnoma import (
    ChannelRealization,
    InfeasibleReason,
    InfeasibleVerdict,
    PowerMinSolution,
    SecrecyRequirement,
    TdmaMinPower,
    constraint_ratio,
    secrecy_outage_closed_form,
    select_users,
    solve_min_power,
    tdma_min_power,
)
from oracles import bruteforce_min_power, min_power_reference, verify_optimality_bruteforce

EPS_E1 = math.exp(-1.0)

TWO_USER = ChannelRealization((5.0, 10.0), 1.0)
REQ_Q1 = SecrecyRequirement(1.0, EPS_E1)


def test_single_user_closed_form():
    ch = ChannelRealization((10.0,), 1.0)
    sol = solve_min_power(ch, REQ_Q1)
    assert isinstance(sol, PowerMinSolution)
    assert sol.allocation.powers_mw[0] == pytest.approx(0.125, rel=1e-12)
    assert sol.total_power_mw == pytest.approx(0.125, rel=1e-12)


def test_single_user_boundary_infeasible():
    ch = ChannelRealization((2.0,), 1.0)  # gain exactly at the stringency threshold
    verdict = solve_min_power(ch, REQ_Q1)
    assert isinstance(verdict, InfeasibleVerdict)
    assert verdict.failing_user_indices == frozenset({1})
    assert verdict.reason is InfeasibleReason.USER_CONDITION_LAST


def test_two_user_worked_instance():
    sol = solve_min_power(TWO_USER, REQ_Q1)
    assert isinstance(sol, PowerMinSolution)
    p1, p2 = sol.allocation.powers_mw
    assert p1 == pytest.approx(117.0 / 152.0, rel=1e-12)
    assert p2 == pytest.approx(0.125, rel=1e-12)
    assert sol.total_power_mw == pytest.approx(17.0 / 19.0, rel=1e-12)
    # rate pairs carry the floor and a codeword rate above it
    for pair in sol.rate_pairs:
        assert pair.confidential_rate == 1.0
        assert pair.codeword_rate >= 1.0
    assert sol.rate_pairs[0].codeword_rate == pytest.approx(1.7520724865564146, rel=1e-12)


def test_constraints_active_at_solution():
    sol = solve_min_power(TWO_USER, REQ_Q1)
    for k in (1, 2):
        out = secrecy_outage_closed_form(TWO_USER, sol.allocation, 1.0, k)
        assert out == pytest.approx(EPS_E1, abs=1e-12)


def test_powers_vanish_with_qos():
    sol = solve_min_power(TWO_USER, SecrecyRequirement(1e-9, EPS_E1))
    assert sol.total_power_mw < 1e-7


def test_powers_monotone_in_qos():
    lo = solve_min_power(TWO_USER, SecrecyRequirement(0.5, EPS_E1))
    hi = solve_min_power(TWO_USER, SecrecyRequirement(0.8, EPS_E1))
    for a, b in zip(lo.allocation.powers_mw, hi.allocation.powers_mw):
        assert b > a


def test_total_power_diverges_at_feasibility_boundary():
    # locate the largest feasible floor, then approach it from below
    lo, hi = 0.5, 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if isinstance(solve_min_power(TWO_USER, SecrecyRequirement(mid, EPS_E1)), PowerMinSolution):
            lo = mid
        else:
            hi = mid
    q_max = lo
    totals = []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        sol = solve_min_power(TWO_USER, SecrecyRequirement(q_max * (1.0 - delta), EPS_E1))
        totals.append(sol.total_power_mw)
    assert totals == sorted(totals)
    assert totals[-1] > 100.0 * totals[0]


def test_first_failing_user_named():
    # strongest user fine, the next denominator fails
    ch = ChannelRealization((2.5, 2.9, 5.0), 1.0)
    verdict = solve_min_power(ch, REQ_Q1)
    assert isinstance(verdict, InfeasibleVerdict)
    assert verdict.failing_user_indices == frozenset({2})
    assert verdict.reason is InfeasibleReason.USER_CONDITION_INNER


def test_select_users_worked_instance():
    ch = ChannelRealization((1.0, 3.0), 1.0)
    sel = select_users(ch, REQ_Q1)
    assert sel.selected_users == (2,)
    assert sel.solution is not None
    assert sel.solution.total_power_mw == pytest.approx(1.0, rel=1e-12)


def test_select_users_drops_coupled_user():
    ch = ChannelRealization((2.5, 2.9, 5.0), 1.0)
    sel = select_users(ch, REQ_Q1)
    # all three clear the solo threshold, but adding user 2 breaks the joint problem
    assert sel.selected_users == (3,)
    assert isinstance(sel.solution, PowerMinSolution)


def test_select_users_none_qualify():
    ch = ChannelRealization((0.5, 1.5), 1.0)  # threshold is 2
    sel = select_users(ch, REQ_Q1)
    assert sel.selected_users == ()
    assert sel.solution is None


def test_select_users_keeps_feasible_everyone():
    sel = select_users(TWO_USER, REQ_Q1)
    assert sel.selected_users == (1, 2)
    assert sel.solution.total_power_mw == pytest.approx(17.0 / 19.0, rel=1e-12)


def _greedy_select_users(channel, req):
    # the greedy loop select_users replaced: one min-power solve per admitted user
    threshold = req.stringency(channel) * 2.0 ** req.qos_rate
    eligible = [k for k in range(1, channel.num_users + 1) if channel.user_gains[k - 1] > threshold]
    selected, solution = [], None
    for k in reversed(eligible):
        trial = sorted(selected + [k])
        sub = ChannelRealization(tuple(channel.user_gains[i - 1] for i in trial), channel.eaves_avg_gain)
        candidate = solve_min_power(sub, req)
        if isinstance(candidate, InfeasibleVerdict):
            break
        selected, solution = trial, candidate
    return tuple(selected), solution


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.1, 50.0), min_size=1, max_size=8),
    st.floats(0.05, 1.5),
    st.floats(0.05, 0.9),
)
def test_select_users_equals_greedy_loop(gains, q, eps):
    channel = ChannelRealization(tuple(sorted(gains)), 1.0)
    req = SecrecyRequirement(q, eps)
    sel = select_users(channel, req)
    assert (sel.selected_users, sel.solution) == _greedy_select_users(channel, req)


def test_bruteforce_gap_on_worked_instance():
    gap = verify_optimality_bruteforce(TWO_USER, REQ_Q1, 1e-3, grid_max=2.0)
    assert -1e-6 <= gap <= 5e-3


def test_bruteforce_finds_nothing_when_infeasible():
    ch = ChannelRealization((1.8,), 1.0)
    total, point = bruteforce_min_power(ch, REQ_Q1, 1e-2, grid_max=2.0)
    assert total is None and point is None
    with pytest.raises(ValueError):
        verify_optimality_bruteforce(ch, REQ_Q1, 1e-2)


def test_bruteforce_three_users():
    ch = ChannelRealization((6.0, 9.0, 14.0), 0.5)
    req = SecrecyRequirement(0.6, 0.2)
    sol = solve_min_power(ch, req)
    assert isinstance(sol, PowerMinSolution)
    assert max(sol.allocation.powers_mw) < 1.0
    gap = verify_optimality_bruteforce(ch, req, 5e-3, grid_max=1.0)
    assert -1e-6 <= gap <= 0.1


def _near_boundary_instances(rng, per_k):
    """Min-power instances (ascending gains, phi, q) with K = 3..8, phi over
    six decades and q in 0.05..3, each with one user whose gain lies a
    relative 1e-9..1e-2 above or below its threshold: the gain at which its
    denominator vanishes, given the exact powers of the stronger users. That
    user is the weakest in half of them and any user in the rest; stronger
    users' gains lie 0.1 to 3 decades above phi 2**q, weaker ones up to a
    decade below that user's."""
    for k in range(3, 9):
        made = 0
        while made < per_k:
            phi, q = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0)
            rho = 2.0 ** q
            j = 1 if made % 2 else int(rng.integers(1, k + 1))
            above = sorted((phi * rho * 10.0 ** rng.uniform(0.1, 3.0, k - j)).tolist())
            design = min_power_reference(above, phi, rho)
            if isinstance(design, int):
                continue
            with localcontext() as ctx:
                ctx.prec = 60
                base = 1 - Decimal(phi) * (Decimal(rho) - 1) * sum(design[0], Decimal(0))
                if not base > 0:
                    continue
                margin = Decimal(10.0 ** rng.uniform(-9.0, -2.0) * rng.choice((-1.0, 1.0)))
                gain = float(Decimal(phi) * Decimal(rho) / base * (1 + margin))
            if above and gain > above[0]:
                continue
            made += 1
            yield sorted((gain * 10.0 ** rng.uniform(-1.0, 0.0, j - 1)).tolist()) + [gain] + above, phi, q


def test_min_power_matches_a_60_digit_reference_near_the_boundary():
    # every verdict agrees, and each power lies within 8 ulp over the
    # smallest margin (denominator over gain) of its own user and the
    # stronger ones: a user near its boundary loses about 1/margin of the
    # relative precision of its denominator. The worst seen over 24,000 such
    # instances was 2.9 ulp over the margin.
    rng, bound = np.random.default_rng(23), Decimal(8 * 2.0**-52)
    smallest, feasible = 1.0, 0
    for gains, phi, q in _near_boundary_instances(rng, per_k=800):
        # the eavesdropper gain is the stringency itself at EPS_E1
        sol = solve_min_power(ChannelRealization(tuple(gains), phi), SecrecyRequirement(q, EPS_E1))
        exact = min_power_reference(gains, phi, 2.0**q)
        if isinstance(exact, int):
            last = exact == len(gains)
            reason = InfeasibleReason.USER_CONDITION_LAST if last else InfeasibleReason.USER_CONDITION_INNER
            assert sol == InfeasibleVerdict(frozenset({exact}), reason)
            continue
        powers, margins = exact
        assert isinstance(sol, PowerMinSolution)
        for k, (got, want) in enumerate(zip(sol.allocation.powers_mw, powers)):
            assert abs(Decimal(got) - want) <= bound * want / min(margins[k:])
        smallest, feasible = min(smallest, float(margins[0])), feasible + 1
    assert feasible > 1000 and smallest < 1e-8


def test_constraint_ratio_matches_outage_threshold():
    # the largest phi the pair tolerates reproduces outage exactly at the bound
    sol = solve_min_power(TWO_USER, REQ_Q1)
    p1, p2 = sol.allocation.powers_mw
    phi_max = constraint_ratio(5.0, 1.0, p1, p2)
    assert phi_max == pytest.approx(1.0, rel=1e-9)  # phi of the instance: active constraint


@settings(max_examples=150, deadline=None)
@given(
    gain=st.floats(1.0, 40.0),
    q=st.floats(0.1, 1.5),
    y=st.floats(0.0, 2.0),
    extra=st.floats(0.01, 2.0),
)
def test_constraint_ratio_partial_signs(gain, q, y, extra):
    # own power helps, interference hurts, on the region where the QoS is met
    x = (2.0 ** q - 1.0) * (1.0 + gain * y) / gain + extra
    h = 1e-6
    base = constraint_ratio(gain, q, x, y)
    assert constraint_ratio(gain, q, x + h, y) > base
    assert constraint_ratio(gain, q, x, y + h) < base


def _random_feasible_instance(rng, num_users):
    while True:
        gains = tuple(sorted(rng.uniform(2.0, 30.0, size=num_users)))
        ge = rng.uniform(0.1, 1.5)
        eps = rng.uniform(0.05, 0.5)
        q = rng.uniform(0.2, 1.2)
        ch = ChannelRealization(gains, ge)
        req = SecrecyRequirement(q, eps)
        sol = solve_min_power(ch, req)
        if isinstance(sol, PowerMinSolution):
            return ch, req, sol


def test_random_instances_active_and_ordered():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        ch, req, sol = _random_feasible_instance(rng, int(rng.integers(1, 5)))
        for k in range(1, ch.num_users + 1):
            out = secrecy_outage_closed_form(ch, sol.allocation, req.qos_rate, k)
            assert out == pytest.approx(req.outage_bound, abs=1e-9)
            assert sol.rate_pairs[k - 1].codeword_rate >= req.qos_rate - 1e-12


def test_numpy_gains_design_like_python_floats():
    # ChannelRealization takes numpy float64 gains, as drawn by numpy: the
    # scalar designs must name the same failing users for the same reasons
    # and give the same powers as on the Python floats they equal
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(400):
        gains = np.sort(10.0 ** rng.uniform(0.0, 2.0, int(rng.integers(1, 6))))
        eaves, q, eps = rng.uniform(0.1, 1.5), rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.6)
        req = SecrecyRequirement(q, eps)
        drawn = ChannelRealization(tuple(gains), eaves)
        floats = ChannelRealization(tuple(gains.tolist()), float(eaves))
        assert isinstance(drawn.user_gains[0], np.float64)
        for design in (solve_min_power, select_users, lambda ch, r: tdma_min_power(ch, r.qos_rate, r.outage_bound)):
            got, want = design(drawn, req), design(floats, req)
            assert got == want
            outcomes.add(want.reason if isinstance(want, InfeasibleVerdict) else type(want))
    assert outcomes >= {PowerMinSolution, TdmaMinPower, *InfeasibleReason} - {InfeasibleReason.POSITIVE_RATE}
