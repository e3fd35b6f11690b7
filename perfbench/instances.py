"""Single-instance designs in a closed loop with one caller.

Channels come from the benchmark's own numpy Generator on the standard
geometry, never from `secnoma.channel`, so a change to the package's sampler
cannot change these inputs. The outage bound, rate floor and budget are drawn
so that about 40% of instances admit no positive max-min rate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import secnoma.maxmin
from secnoma import (
    ChannelRealization,
    InfeasibleVerdict,
    MaxMinSolution,
    SecrecyRequirement,
    check_positive_rate_feasibility,
    compare_maxmin,
    secrecy_outage_closed_form,
    select_users,
    solve_maxmin_bisection,
    solve_min_power,
    tdma_maxmin,
    tdma_min_power,
)

from .common import UnitResult
from .reference import PieceClock

POOL_SIZE = 2000
BLOCK = 200  # instances per timed piece
USER_COUNTS = (2, 4, 8)
D_USER_M, D_EAVE_M, PATH_LOSS_EXPONENT, NOISE_DBM = 50.0, 80.0, 4.0, -70.0
EPS_RANGE = (0.25, 0.65)
QOS_RANGE = (0.05, 0.5)
BUDGET_DBM_RANGE = (10.0, 30.0)
BISECTION_TOL = secnoma.maxmin.DEFAULT_TOL
OUTAGE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Instance:
    channel: ChannelRealization
    eps: float
    q: float
    budget_mw: float


def make_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    noise_mw = 10.0 ** (NOISE_DBM / 10.0)
    user_scale = D_USER_M ** -PATH_LOSS_EXPONENT / noise_mw
    eaves_avg_gain = D_EAVE_M ** -PATH_LOSS_EXPONENT / noise_mw
    pool = []
    for _ in range(POOL_SIZE):
        num = int(rng.choice(USER_COUNTS))
        gains = np.sort(user_scale * rng.exponential(1.0, num))
        channel = ChannelRealization(tuple(float(g) for g in gains), eaves_avg_gain)
        eps = float(rng.uniform(*EPS_RANGE))
        q = float(rng.uniform(*QOS_RANGE))
        budget_mw = float(10.0 ** (rng.uniform(*BUDGET_DBM_RANGE) / 10.0))
        pool.append(Instance(channel, eps, q, budget_mw))
    return pool


def design(inst: Instance):
    """Every single-instance design the package offers, on one instance."""
    ch, eps, q, p = inst.channel, inst.eps, inst.q, inst.budget_mw
    req = SecrecyRequirement(q, eps)
    min_power = solve_min_power(ch, req)
    outages = None
    if not isinstance(min_power, InfeasibleVerdict):
        outages = tuple(
            secrecy_outage_closed_form(ch, min_power.allocation, q, k)
            for k in range(1, ch.num_users + 1)
        )
    selection = select_users(ch, req)
    tdma_power = tdma_min_power(ch, q, eps)
    feasible = check_positive_rate_feasibility(ch, eps)
    maxmin = solve_maxmin_bisection(ch, eps, p)
    comparison = compare_maxmin(ch, eps, p) if feasible else None
    tdma_opt = tdma_maxmin(ch, eps, p, "optimal_time")
    tdma_eq = tdma_maxmin(ch, eps, p, "equal_time")
    return (min_power, outages, selection, tdma_power, feasible, maxmin, comparison, tdma_opt, tdma_eq)


def oracle_errors(inst: Instance, out) -> list[str]:
    """Checks that do not trust the solver being checked."""
    _, outages, _, _, feasible, maxmin, comparison, tdma_opt, tdma_eq = out
    errors = []
    for k, outage in enumerate(outages or (), 1):
        if abs(outage - inst.eps) > OUTAGE_REL_TOL * inst.eps:
            errors.append(f"user {k}: outage {outage!r} at the min-power optimum, bound {inst.eps!r}")
    solved = isinstance(maxmin, MaxMinSolution)
    if feasible != solved or (comparison is not None) != solved:
        errors.append("feasibility check, bisection and comparison disagree")
    rate = maxmin.rate if solved else 0.0
    if solved:
        if not sum(maxmin.allocation.powers_mw) <= inst.budget_mw * (1.0 + 1e-12):
            errors.append("max-min allocation exceeds the budget")
        if inst.channel.num_users == 2:
            closed = secnoma.maxmin.solve_maxmin_two_user(inst.channel, inst.eps, inst.budget_mw)
            if abs(rate - closed.rate) > BISECTION_TOL:
                errors.append(f"bisection {rate!r} vs two-user closed form {closed.rate!r}")
    if not (rate >= tdma_opt.rate - BISECTION_TOL and tdma_opt.rate >= tdma_eq.rate * (1.0 - 1e-12)):
        errors.append(f"rates out of order noma={rate} tdma_opt={tdma_opt.rate} tdma_eq={tdma_eq.rate}")
    return errors


class InstanceSolves:
    """One unit is one pass over the pool; every instance is one request and
    every block of BLOCK instances one piece.

    The first pass, the warm-up, is checked against the oracles; later
    passes must reproduce it exactly."""

    def __init__(self, seed: int):
        self.pool = make_pool(seed)
        self.reference = None
        self.bad: set[int] = set()

    def run_unit(self, tracer=None) -> UnitResult:
        latencies = []
        outputs = []
        perf = time.perf_counter
        # the reference kernel would only slow a traced pass down
        clock = PieceClock() if tracer is None else None
        for i, inst in enumerate(self.pool, 1):
            if tracer is not None:
                tracer.next_request()
            t0 = perf()
            try:
                out = design(inst)
            except (ValueError, RuntimeError) as exc:
                out = exc
            latencies.append(perf() - t0)
            outputs.append(out)
            if clock is not None and i % BLOCK == 0:
                clock.add(sum(latencies[-BLOCK:]))

        errors = []
        if self.reference is None:
            self.reference = outputs
            for i, (inst, out) in enumerate(zip(self.pool, outputs)):
                if isinstance(out, Exception):
                    problems = [f"{out!r} on K={inst.channel.num_users}, eps={inst.eps!r}, budget_mw={inst.budget_mw!r}"]
                else:
                    problems = oracle_errors(inst, out)
                if problems:
                    self.bad.add(i)
                    errors += [f"instance {i}: {p}" for p in problems]
        else:
            for i, out in enumerate(outputs):
                if out != self.reference[i] and i not in self.bad:
                    self.bad.add(i)
                    errors.append(f"instance {i}: result differs from the first pass")
        ratios = clock.ratios if clock is not None else []
        return UnitResult(sum(latencies), len(self.pool), latencies, ratios, len(self.pool), len(self.bad), errors)

    warm_up = run_unit
    traced_unit = run_unit
