import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnoma import (
    ChannelRealization,
    InfeasibleReason,
    InfeasibleVerdict,
    MaxMinSolution,
    PowerAllocation,
    bound_triple,
    check_positive_rate_feasibility,
    optimal_power_ratio_user1,
    secrecy_outage_closed_form,
    solve_maxmin_bisection,
    solve_maxmin_two_user,
)
from secnoma.maxmin import _maxmin_rows, rate_ceiling_two_user

from oracles import maxmin_rate_reference

EPS_E1 = math.exp(-1.0)

TWO_USER = ChannelRealization((5.0, 10.0), 1.0)

# frozen optima of the (5, 10) instance at unit budget and stringency 1
RATE_STAR = 1.0336483814804196
P1_STAR = 0.8683238475911494
P2_STAR = 0.13167615240885053
B2_STAR = 2.7868360159890453  # (sqrt(745) - 5) / 8
B3_STAR = 2.0471947908039936


def test_closed_form_worked_instance():
    sol = solve_maxmin_two_user(TWO_USER, EPS_E1, 1.0)
    assert isinstance(sol, MaxMinSolution)
    assert sol.rate == pytest.approx(RATE_STAR, abs=1e-12)
    assert sol.allocation.powers_mw[0] == pytest.approx(P1_STAR, abs=1e-12)
    assert sol.allocation.powers_mw[1] == pytest.approx(P2_STAR, abs=1e-12)
    assert sol.iterations_used == 0


def test_bisection_matches_closed_form():
    bis = solve_maxmin_bisection(TWO_USER, EPS_E1, 1.0)
    closed = solve_maxmin_two_user(TWO_USER, EPS_E1, 1.0)
    assert abs(bis.rate - closed.rate) < 1e-8
    assert bis.rate == pytest.approx(RATE_STAR, abs=1e-8)


def test_bisection_iteration_count_is_exact():
    for budget, tol in ((1.0, 1e-10), (1.0, 1e-6), (3.0, 1e-10)):
        sol = solve_maxmin_bisection(TWO_USER, EPS_E1, budget, tol=tol)
        hi0 = math.log2(1.0 + TWO_USER.user_gains[0] * budget)
        assert sol.iterations_used == math.ceil(math.log2(hi0 / tol))


def test_bisection_certificate_is_consistent():
    ch = ChannelRealization((5.0, 10.0, 20.0), 1.0)
    sol = solve_maxmin_bisection(ch, EPS_E1, 2.0)
    assert isinstance(sol, MaxMinSolution)
    assert sum(sol.allocation.powers_mw) <= 2.0
    # the stored allocation achieves the stored floor with every outage active
    for k in range(1, 4):
        out = secrecy_outage_closed_form(ch, sol.allocation, sol.rate, k)
        assert out == pytest.approx(EPS_E1, abs=1e-9)


def test_budget_tight_in_closed_form():
    cases = [
        (ChannelRealization((5.0, 10.0), 1.0), EPS_E1, 1.0),
        (ChannelRealization((3.0, 8.0), 0.5), 0.2, 0.5),
        (ChannelRealization((6.0, 7.0), 2.0), 0.5, 10.0),
    ]
    for ch, eps, p in cases:
        sol = solve_maxmin_two_user(ch, eps, p)
        assert isinstance(sol, MaxMinSolution)
        assert min(sol.allocation.powers_mw) > 0
        assert sum(sol.allocation.powers_mw) == pytest.approx(p, rel=1e-9)


def test_bisection_budget_slack_is_tiny():
    for budget in (0.5, 1.0, 4.0):
        sol = solve_maxmin_bisection(TWO_USER, EPS_E1, budget)
        slack = budget - sum(sol.allocation.powers_mw)
        assert 0.0 <= slack < 1e-6


def test_positive_rate_infeasibility():
    ch = ChannelRealization((0.8, 10.0), 1.0)  # stringency 1 shuts out user 1
    assert not check_positive_rate_feasibility(ch, EPS_E1)
    for solver in (solve_maxmin_two_user, solve_maxmin_bisection):
        verdict = solver(ch, EPS_E1, 1.0)
        assert isinstance(verdict, InfeasibleVerdict)
        assert verdict.reason is InfeasibleReason.POSITIVE_RATE
        assert verdict.failing_user_indices == frozenset({1})
    both = ChannelRealization((0.5, 0.9), 1.0)
    verdict = solve_maxmin_two_user(both, EPS_E1, 1.0)
    assert verdict.failing_user_indices == frozenset({1, 2})


def test_tolerance_too_coarse_raises():
    with pytest.raises(ValueError, match="tolerance"):
        solve_maxmin_bisection(TWO_USER, EPS_E1, 1.0, tol=3.0)


def test_equal_gains_closed_form():
    ch = ChannelRealization((10.0, 10.0), 1.0)
    sol = solve_maxmin_two_user(ch, EPS_E1, 1.0)
    # both constraints active with identical gains: rate is half the solo rate
    assert sol.rate == pytest.approx(0.5 * math.log2(5.5), abs=1e-12)
    bis = solve_maxmin_bisection(ch, EPS_E1, 1.0)
    assert abs(bis.rate - sol.rate) < 1e-8


def test_vanishing_budget_keeps_rate_positive():
    sol = solve_maxmin_two_user(TWO_USER, EPS_E1, 1e-6)
    assert 0.0 < sol.rate < 1e-5


def test_rate_saturates_at_budget_free_bound():
    rates = [
        solve_maxmin_two_user(TWO_USER, EPS_E1, p).rate for p in (1.0, 10.0, 1e3, 1e5, 1e7)
    ]
    assert rates == sorted(rates)
    ceiling = math.log2(B2_STAR)
    assert all(r < ceiling for r in rates)
    assert rates[-1] == pytest.approx(ceiling, abs=1e-4)


def test_bound_triple_worked_instance():
    b1, b2, b3 = bound_triple(5.0, 10.0, 1.0, 1.0)
    assert b1 == pytest.approx(10.0, abs=1e-12)
    assert b2 == pytest.approx(B2_STAR, abs=1e-12)
    assert b2 == pytest.approx((math.sqrt(745.0) - 5.0) / 8.0, abs=1e-12)
    assert b3 == pytest.approx(B3_STAR, abs=1e-12)
    sol = solve_maxmin_two_user(TWO_USER, EPS_E1, 1.0)
    assert sol.rate == pytest.approx(math.log2(b3), abs=1e-12)


def _two_user_reference(g1, g2, phi, p):
    """b3, p1, p2, beta and b2 in their textbook forms, in 60-digit decimal
    arithmetic: the digits lost to their subtractions leave far more than
    double precision. b3 = (psi - A) / (2 (1 + phi p)(g1 - phi)) with
    A = (1 + phi p)(g2 - g1)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        g1, g2, phi, p = map(decimal.Decimal, (g1, g2, phi, p))
        c = 1 + phi * p
        psi = (c * (4 * (1 + g1 * p) * (g1 - phi) * (g2 - phi) + c * (g2 - g1) ** 2)).sqrt()
        core = c * g1 * g2 - phi * phi * (1 + g1 * p)
        p1 = (c * (g2 + g1 * (1 + 2 * g2 * p) - 2 * phi * (1 + g1 * p)) - psi) / (2 * core)
        p2 = (psi - (g1 + g2) - phi * (g2 * p - g1 * p - 2)) / (2 * core)
        inner = 4 * phi * phi * g1 - 3 * phi * g1 * g1 - 6 * phi * g1 * g2 + 4 * g1 * g1 * g2 + phi * g2 * g2
        b2 = ((inner / phi).sqrt() - (g2 - g1)) / (2 * (g1 - phi))
        return (psi - c * (g2 - g1)) / (2 * c * (g1 - phi)), p1, p2, p1 / p, b2


def test_closed_form_matches_a_60_digit_reference():
    # g2/g1 up to 1e6 and phi/g1 down to 1e-6, where the textbook forms in
    # doubles cancel to relative errors of about 1e-9 (b3, b2), 1e-7 (p1,
    # beta) and 0.1 (p2)
    rng = np.random.default_rng(7)
    worst = [0.0] * 5
    for _ in range(5000):
        g1 = 10.0 ** rng.uniform(-6.0, 6.0)
        g2 = g1 * 10.0 ** rng.uniform(0.0, 6.0)
        phi = g1 * 10.0 ** rng.uniform(-6.0, 0.0)
        p = 10.0 ** rng.uniform(-3.0, 3.0)
        if not g1 > phi:
            continue
        # the eavesdropper gain is the stringency itself at EPS_E1
        sol = solve_maxmin_two_user(ChannelRealization((g1, g2), phi), EPS_E1, p)
        got = (
            rate_ceiling_two_user(g1, g2, phi, p),
            *sol.allocation.powers_mw,
            optimal_power_ratio_user1(g1, g2, phi, p),
            bound_triple(g1, g2, phi, p)[1],
        )
        for i, (value, exact) in enumerate(zip(got, _two_user_reference(g1, g2, phi, p))):
            worst[i] = max(worst[i], abs(decimal.Decimal(value) - exact) / exact)
    assert max(worst) <= 1e-15


def _maxmin_instances(rng, per_k):
    """Feasible max-min instances (ascending gains, phi) with K = 3..8 and phi
    over six decades: per K, half with g1/phi - 1 over 1e-3..10 and half
    near the boundary, 1e-8..1e-2; the other gains up to two decades above
    g1."""
    for k in range(3, 9):
        for i in range(per_k):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            margin = 10.0 ** (rng.uniform(-8.0, -2.0) if i % 2 else rng.uniform(-3.0, 1.0))
            weakest = scale * (1.0 + margin)
            yield sorted([weakest, *(weakest * 10.0 ** rng.uniform(0.0, 2.0, k - 1))]), scale


def test_bisection_matches_a_60_digit_reference_beyond_two_users():
    # the rate is the switch of the exact test up to tol on both solvers,
    # near the positive-rate boundary too; the worst errors here are 8.6e-14
    # (random) and 9.4e-14 (near the boundary)
    rng, tol = np.random.default_rng(17), 1e-13
    for budget in (1.0, 100.0):
        instances = list(_maxmin_instances(rng, per_k=30))
        gains = np.array([[math.inf] * (8 - len(g)) + g for g, _ in instances])
        phis = np.array([phi for _, phi in instances])
        batch = _maxmin_rows(gains, phis, budget, tol)[0]
        for (row, phi), lockstep in zip(instances, batch.tolist()):
            # the eavesdropper gain is the stringency itself at EPS_E1
            scalar = solve_maxmin_bisection(ChannelRealization(tuple(row), phi), EPS_E1, budget, tol).rate
            exact = maxmin_rate_reference(row, phi, budget)
            assert abs(decimal.Decimal(scalar) - exact) <= tol
            assert abs(decimal.Decimal(lockstep) - exact) <= tol


@pytest.mark.parametrize("gain", [1e110, 1e160])
def test_closed_forms_raise_where_they_overflow(gain):
    # the discriminant overflows at these gains; inf, 0.0 or nan would
    # otherwise come out (the bisection still solves them)
    with pytest.raises(OverflowError, match="closed form overflows"):
        solve_maxmin_two_user(ChannelRealization((gain, 10.0 * gain), 1.0), EPS_E1, 1.0)
    for closed_form in (bound_triple, optimal_power_ratio_user1):
        with pytest.raises(OverflowError, match="closed form overflows"):
            closed_form(gain, 10.0 * gain, 1.0, 1.0)


@pytest.mark.parametrize("budget", [-1.0, 0.0, math.nan, math.inf])
def test_closed_forms_reject_bad_budgets(budget):
    # -1 divided by zero in b3, nan came out of it, and inf gave no error
    for closed_form in (bound_triple, optimal_power_ratio_user1):
        with pytest.raises(ValueError, match="^power budget must be positive and finite$"):
            closed_form(2.0, 5.0, 1.0, budget)


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(0.1, 2.0),
    d1=st.floats(0.05, 20.0),
    d2=st.floats(0.0, 20.0),
    p=st.floats(0.01, 100.0),
)
def test_bound_triple_ordering(phi, d1, d2, p):
    g1 = phi + d1
    g2 = g1 + d2
    b1, b2, b3 = bound_triple(g1, g2, phi, p)
    assert b3 <= b2 * (1.0 + 1e-12)
    assert b2 <= b1 * (1.0 + 1e-12)
    assert b3 > 1.0  # positive rate whenever gains clear the stringency


def test_power_ratio_matches_allocation():
    for p in (0.5, 1.0, 7.0):
        sol = solve_maxmin_two_user(TWO_USER, EPS_E1, p)
        beta = optimal_power_ratio_user1(5.0, 10.0, 1.0, p)
        assert beta == pytest.approx(sol.allocation.powers_mw[0] / p, rel=1e-12)
        assert 0.5 < beta < 1.0


def test_power_ratio_increases_with_stringency():
    phis = np.linspace(0.02 * 5.0, 0.98 * 5.0, 200)
    betas = [optimal_power_ratio_user1(5.0, 10.0, float(phi), 1.0) for phi in phis]
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))


@settings(max_examples=100, deadline=None)
@given(
    g1=st.floats(1.0, 20.0),
    d2=st.floats(0.0, 30.0),
    p=st.floats(0.05, 50.0),
    lo=st.floats(0.05, 0.5),
    hi=st.floats(0.55, 0.95),
)
def test_power_ratio_monotone_everywhere(g1, d2, p, lo, hi):
    g2 = g1 + d2
    b_lo = optimal_power_ratio_user1(g1, g2, lo * g1, p)
    b_hi = optimal_power_ratio_user1(g1, g2, hi * g1, p)
    assert b_hi > b_lo


def test_rate_moves_with_secrecy_pressure():
    base = solve_maxmin_two_user(TWO_USER, EPS_E1, 1.0).rate
    # a laxer outage bound buys rate, a stronger eavesdropper costs rate
    assert solve_maxmin_two_user(TWO_USER, 0.6, 1.0).rate > base
    harder = ChannelRealization((5.0, 10.0), 2.0)
    assert solve_maxmin_two_user(harder, EPS_E1, 1.0).rate < base


def test_solution_validation():
    alloc = PowerAllocation((0.5, 0.5))
    with pytest.raises(ValueError):
        MaxMinSolution(0.0, alloc, 0)
    with pytest.raises(ValueError):
        MaxMinSolution(-1.0, alloc, 3)
    with pytest.raises(ValueError):
        solve_maxmin_two_user(ChannelRealization((5.0, 10.0, 20.0), 1.0), EPS_E1, 1.0)
    with pytest.raises(ValueError):
        solve_maxmin_bisection(TWO_USER, EPS_E1, -1.0)
    with pytest.raises(ValueError):
        solve_maxmin_bisection(TWO_USER, EPS_E1, 1.0, tol=0.0)
