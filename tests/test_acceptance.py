"""Acceptance suite: one test per release criterion.

Each criterion pins a distinct contract: closed forms against independent
oracles (Monte Carlo, grid search, bisection), frozen worked-instance
goldens, dominance and monotonicity claims, the geometry of the two-user
rate region, sweep-level trends at desk scale, and byte-level determinism
of the sweep tooling. The terminal summary prints one PASS/FAIL line per
criterion.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from secnoma import (
    ChannelRealization,
    PowerAllocation,
    PowerMinSolution,
    RatePair,
    SecrecyRequirement,
    SweepAxis,
    SweepSpec,
    check_positive_rate_feasibility,
    max_codeword_rate,
    noma_rate_region_boundary,
    optimal_power_ratio_user1,
    run_sweep,
    secrecy_outage_closed_form,
    secrecy_outage_for_order,
    solve_maxmin_bisection,
    solve_maxmin_two_user,
    solve_min_power,
    tdma_maxmin,
    write_results,
)
from oracles import empirical_outage, verify_optimality_bruteforce

EPS_E1 = math.exp(-1.0)


def _pairs(channel, alloc, q):
    return [
        RatePair(max_codeword_rate(channel, alloc, m), q)
        for m in range(1, channel.num_users + 1)
    ]


def _random_feasible(rng, num_users):
    while True:
        gains = tuple(sorted(float(g) for g in rng.uniform(2.0, 30.0, num_users)))
        ge = float(rng.uniform(0.2, 1.5))
        eps = float(rng.uniform(0.05, 0.5))
        q = float(rng.uniform(0.2, 1.2))
        channel = ChannelRealization(gains, ge)
        req = SecrecyRequirement(q, eps)
        sol = solve_min_power(channel, req)
        if isinstance(sol, PowerMinSolution):
            return channel, req, sol


def test_criterion_01_closed_form_outage_matches_monte_carlo():
    """50 random feasible instances, K <= 4: every user's closed-form outage
    sits within 3 binomial standard errors of a 10^6-trial estimate."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    trials = 10 ** 6
    for i in range(50):
        channel, req, sol = _random_feasible(rng, int(rng.integers(1, 5)))
        # odd instances back off the boundary so coverage is not active-only
        scale = 1.0 if i % 2 == 0 else float(rng.uniform(1.0, 1.8))
        alloc = PowerAllocation(tuple(p * scale for p in sol.allocation.powers_mw))
        pairs = _pairs(channel, alloc, req.qos_rate)
        for k in range(1, channel.num_users + 1):
            closed = secrecy_outage_closed_form(channel, alloc, req.qos_rate, k)
            emp = empirical_outage(channel, alloc, pairs, k, trials, seed=1000 * i + k)
            sigma = math.sqrt(max(closed * (1.0 - closed), 1e-12) / trials)
            assert abs(closed - emp) < 3.0 * sigma, (i, k, closed, emp)
    assert time.monotonic() - start < 60.0


def test_criterion_02_power_recursion_is_grid_optimal():
    """100 random feasible two-user instances: the exhaustive grid (step 1e-3)
    finds nothing cheaper than the closed form minus 1e-6, and both outage
    constraints are active at the closed-form point to 1e-9."""
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 100:
        channel, req, sol = _random_feasible(rng, 2)
        if max(sol.allocation.powers_mw) > 1.8:
            continue  # keep the optimum safely inside the grid box
        gap = verify_optimality_bruteforce(channel, req, 1e-3, grid_max=2.0)
        assert gap >= -1e-6, (channel, req, gap)
        for k in (1, 2):
            out = secrecy_outage_closed_form(channel, sol.allocation, req.qos_rate, k)
            assert abs(out - req.outage_bound) < 1e-9
        checked += 1


def test_criterion_03_bisection_matches_two_user_closed_form():
    """200 random feasible two-user instances: bisection and the closed form
    agree to 1e-8, and the step count is exactly ceil(log2(bracket/tol))."""
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 200:
        g1, g2 = sorted(rng.uniform(2.0, 30.0, 2))
        channel = ChannelRealization((float(g1), float(g2)), float(rng.uniform(0.2, 1.2)))
        eps = float(rng.uniform(0.05, 0.5))
        if not check_positive_rate_feasibility(channel, eps):
            continue
        budget = float(rng.uniform(0.3, 5.0))
        closed = solve_maxmin_two_user(channel, eps, budget)
        bis = solve_maxmin_bisection(channel, eps, budget, tol=1e-10)
        assert abs(bis.rate - closed.rate) < 1e-8
        bracket = math.log2(1.0 + channel.user_gains[0] * budget)
        assert bis.iterations_used == math.ceil(math.log2(bracket / 1e-10))
        checked += 1


def test_criterion_04_worked_instance_goldens():
    """Frozen goldens of the (5, 10) instance at unit eavesdropper gain,
    eps = 1/e, unit floor and unit budget; every value cross-checked by an
    independent oracle before freezing."""
    channel = ChannelRealization((5.0, 10.0), 1.0)
    req = SecrecyRequirement(1.0, EPS_E1)

    sol = solve_min_power(channel, req)
    assert sol.allocation.powers_mw[0] == pytest.approx(0.769737, abs=1e-6)
    assert sol.allocation.powers_mw[1] == pytest.approx(0.125, abs=1e-6)
    assert sol.total_power_mw == pytest.approx(0.894737, abs=1e-6)
    gap = verify_optimality_bruteforce(channel, req, 1e-3, grid_max=2.0)
    assert -1e-6 <= gap <= 5e-3  # grid oracle finds nothing cheaper

    closed = solve_maxmin_two_user(channel, EPS_E1, 1.0)
    bis = solve_maxmin_bisection(channel, EPS_E1, 1.0)
    assert abs(closed.rate - bis.rate) < 1e-8  # two independent routes agree
    assert closed.rate == pytest.approx(1.0336483814804196, abs=1e-6)
    assert closed.allocation.powers_mw[0] == pytest.approx(0.868324, abs=1e-6)
    assert closed.allocation.powers_mw[1] == pytest.approx(0.131676, abs=1e-6)

    tdma = tdma_maxmin(channel, EPS_E1, 1.0, "optimal_time")
    assert tdma.rate == pytest.approx(0.9638296302454304, abs=1e-6)
    equal = tdma_maxmin(channel, EPS_E1, 1.0, "equal_time")
    assert equal.rate == pytest.approx(0.792481250360578, abs=1e-6)


def test_criterion_05_superposition_dominates_time_division():
    """1000 random feasible two-user instances: the superposition max-min
    rate never trails optimal-time TDMA, beats it strictly on unequal gains,
    and ties it to 1e-8 on equal gains."""
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 1000:
        g1 = float(rng.uniform(1.5, 30.0))
        g2 = g1 if checked % 20 == 0 else float(rng.uniform(g1, 30.0))
        channel = ChannelRealization((g1, g2), float(rng.uniform(0.2, 1.2)))
        eps = float(rng.uniform(0.05, 0.5))
        if not check_positive_rate_feasibility(channel, eps):
            continue
        p = float(rng.uniform(0.2, 5.0))
        noma = solve_maxmin_two_user(channel, eps, p).rate
        opt = tdma_maxmin(channel, eps, p, "optimal_time").rate
        assert noma >= opt - 1e-12
        if g1 == g2:
            assert abs(noma - opt) < 1e-8
        elif (g2 - g1) / g1 > 1e-6:
            assert noma > opt
        checked += 1


def test_criterion_06_weak_user_share_strictly_increases_with_stringency():
    """100 instances x 1000 stringency samples: the weak user's optimal
    budget share rises strictly with the stringency, without exception."""
    rng = np.random.default_rng(606)
    for _ in range(100):
        g1 = float(rng.uniform(1.0, 20.0))
        g2 = g1 * float(rng.uniform(1.0, 3.0))
        p = float(rng.uniform(0.1, 20.0))
        phis = np.linspace(0.02 * g1, 0.98 * g1, 1000)
        betas = np.array([optimal_power_ratio_user1(g1, g2, float(phi), p) for phi in phis])
        assert np.all(np.diff(betas) > 0.0)


def test_criterion_07_fixing_order_inversions_never_raises_outage():
    """500 random allocations and decode orders, K <= 5: swapping any
    adjacent inversion toward ascending gains leaves every message's outage
    unchanged except the later slot, which can only improve."""
    rng = np.random.default_rng(707)
    for _ in range(500):
        num = int(rng.integers(2, 6))
        order = [float(g) for g in rng.uniform(0.5, 30.0, num)]
        alloc = PowerAllocation(tuple(float(p) for p in rng.uniform(0.05, 2.0, num)))
        ge = float(rng.uniform(0.2, 1.5))
        q = float(rng.uniform(0.1, 1.5))

        swapped = True
        while swapped:  # bubble toward ascending, checking every swap
            swapped = False
            for i in range(num - 1):
                if order[i] <= order[i + 1]:
                    continue
                before = [
                    secrecy_outage_for_order(tuple(order), ge, alloc, q, pos)
                    for pos in range(1, num + 1)
                ]
                order[i], order[i + 1] = order[i + 1], order[i]
                after = [
                    secrecy_outage_for_order(tuple(order), ge, alloc, q, pos)
                    for pos in range(1, num + 1)
                ]
                for pos in range(1, num + 1):
                    if pos == i + 2:
                        assert after[pos - 1] <= before[pos - 1] + 1e-12
                    else:
                        assert after[pos - 1] == before[pos - 1]
                swapped = True
        assert order == sorted(order)


def test_criterion_08_two_user_region_geometry():
    """Boundary geometry: concave (nonpositive slope differences to 1e-9)
    when the gains differ, affine to 1e-9 when they tie, and endpoints shared
    with the TDMA boundary to 1e-10."""
    for channel, eps, p in (
        (ChannelRealization((5.0, 10.0), 1.0), EPS_E1, 1.0),
        (ChannelRealization((3.0, 25.0), 0.5), 0.2, 2.0),
    ):
        reg = noma_rate_region_boundary(channel, eps, p)
        r1, r2 = reg.noma[:, 0], reg.noma[:, 1]
        slopes = np.diff(r1) / np.diff(r2)
        assert np.all(np.diff(slopes) <= 1e-9)
        assert np.max(np.abs(reg.noma[0] - reg.tdma[0])) < 1e-10
        assert np.max(np.abs(reg.noma[-1] - reg.tdma[-1])) < 1e-10

    reg = noma_rate_region_boundary(ChannelRealization((8.0, 8.0), 1.0), EPS_E1, 1.0)
    assert float(np.ptp(reg.noma[:, 0] + reg.noma[:, 1])) < 1e-9
    assert np.max(np.abs(reg.noma[0] - reg.tdma[0])) < 1e-10
    assert np.max(np.abs(reg.noma[-1] - reg.tdma[-1])) < 1e-10


def test_criterion_09_sweep_trends_at_desk_scale():
    """Deterministic desk-scale sweeps reproduce the headline trends: power
    monotone in the floor with a feasibility blow-up and superposition always
    at or below TDMA; the weak user's split falling in the outage budget and
    rising in the tap quality; fading averages rising in the outage budget
    with superposition on top; and a user-count advantage above 1 that does
    not shrink."""
    start = time.monotonic()

    power = run_sweep(
        SweepSpec(
            "power_vs_Q",
            SweepAxis("q", 0.02, 0.40, 39),
            {"eps": 0.1, "gamma_e_db": 20.0, "k": 2},
        )
    )
    noma = [r for r in power if r.scheme == "noma"]
    tdma_avg = [r for r in power if r.scheme == "tdma_eq" and r.metric == "avg_power"]
    feas = [r.value for r in noma if r.feasible_frac == 1.0]
    assert 0 < len(feas) < len(noma)  # the axis crosses the feasibility edge
    assert all(b > a for a, b in zip(feas, feas[1:]))
    assert feas[-1] > 10.0 * feas[0]
    for n, t in zip(noma, tdma_avg):
        if n.feasible_frac == 1.0 and t.feasible_frac == 1.0:
            assert n.value <= t.value

    splits = {}
    for ge_db in (17.0, 20.0):
        rows = run_sweep(
            SweepSpec(
                "beta_vs_eps",
                SweepAxis("eps", 0.1, 0.5, 9),
                {"gamma_e_db": ge_db, "k": 2, "gain_base_db": 22.0, "p_dbm": 20.0},
            )
        )
        vals = [r.value for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        splits[ge_db] = vals
    assert all(hi > lo for lo, hi in zip(splits[17.0], splits[20.0]))

    fading = run_sweep(
        SweepSpec(
            "avg_rate_vs_eps",
            SweepAxis("eps", 0.05, 0.45, 9),
            {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "k": 2},
            trials=5000,
            seed=11,
        )
    )
    series = {
        s: [r.value for r in fading if r.scheme == s and r.metric == "avg_min_rate"]
        for s in ("noma", "tdma_opt", "tdma_eq")
    }
    for vals in series.values():
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for n, o, e in zip(series["noma"], series["tdma_opt"], series["tdma_eq"]):
        assert n >= o >= e

    gain = run_sweep(
        SweepSpec(
            "gain_vs_K",
            SweepAxis("k", 2, 6, 5),
            {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "eps": 0.2},
            trials=5000,
            seed=11,
        )
    )
    ratios = [r.value for r in gain if r.metric == "rate_ratio"]
    assert len(ratios) == 5
    assert all(r > 1.0 for r in ratios)
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    assert time.monotonic() - start < 300.0


def test_criterion_10_sweep_output_is_deterministic(tmp_path):
    """The same sweep config produces byte-identical CSV on rerun, through
    the CLI and through the library alike."""
    config = "\n".join(
        [
            "kind = avg_rate_vs_eps",
            "axis = eps",
            "axis_start = 0.1",
            "axis_stop = 0.3",
            "axis_steps = 3",
            "trials = 300",
            "seed = 17",
            "d_user = 50",
            "d_eave = 100",
            "p_dbm = 20",
            "k = 2",
        ]
    ) + "\n"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "secnoma", "sweep", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"x,scheme,metric,value,stderr,feasible_frac,trials,seed\n")

    spec = SweepSpec(
        "avg_rate_vs_eps",
        SweepAxis("eps", 0.1, 0.3, 3),
        {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "k": 2},
        trials=300,
        seed=17,
    )
    lib_out = tmp_path / "lib.csv"
    write_results(run_sweep(spec), lib_out)
    assert lib_out.read_bytes() == outs[0]
