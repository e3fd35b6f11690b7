"""Independent oracles for the test suite: an exhaustive grid search for
the minimum-power design, a 60-digit max-min rate and a Monte Carlo estimate
of the secrecy outage.

Only tests call them, and they reuse none of the package's arithmetic, so
the closed forms and the recursion are checked against code of their own.
"""
from decimal import Decimal, localcontext

import numpy as np

from secnoma import (
    ChannelRealization,
    InfeasibleVerdict,
    PowerAllocation,
    RatePair,
    SecrecyRequirement,
    solve_min_power,
)
from secnoma.power_min import DENOM_TOL


def bruteforce_min_power(
    channel: ChannelRealization,
    req: SecrecyRequirement,
    grid_step: float,
    grid_max: float = 2.0,
):
    """Exhaustive grid search over positive power vectors (step-spaced up to
    grid_max per user) meeting every outage constraint. Returns (total, point)
    of the cheapest feasible grid point, or (None, None). K <= 3 only.
    """
    if channel.num_users > 3:
        raise ValueError("grid oracle supports at most 3 users")
    if not (grid_step > 0 and grid_max > grid_step):
        raise ValueError("need 0 < grid_step < grid_max")
    gains = channel.user_gains
    num = channel.num_users
    phi = req.stringency(channel)
    rho = 2.0 ** req.qos_rate
    axis = np.arange(1, int(round(grid_max / grid_step)) + 1) * grid_step

    def last_user_ok(p):
        # no interference left after full SIC
        return 1.0 + gains[num - 1] * p - rho >= phi * rho * p

    def inner_ok(k, own, interf):
        g = gains[k - 1]
        s_here = own + interf
        ratio = (1.0 + g * s_here) / (1.0 + g * interf)
        den = rho * s_here - ratio * interf
        return (den > 0.0) & (ratio - rho >= phi * den)

    best_total = None
    best_point = None

    if num == 1:
        ok = last_user_ok(axis)
        if np.any(ok):
            i = int(np.argmax(ok))  # axis ascending, first hit is cheapest
            best_total, best_point = float(axis[i]), (float(axis[i]),)
        return best_total, best_point

    ok_last = last_user_ok(axis)
    if num == 2:
        for p2 in axis[ok_last]:
            if best_total is not None and p2 >= best_total:
                break  # axis ascends; no cheaper total can follow
            ok = inner_ok(1, axis, p2)
            if not np.any(ok):
                continue
            total = axis[ok][0] + p2  # cheapest feasible p1 for this p2
            if best_total is None or total < best_total:
                best_total = float(total)
                best_point = (float(axis[ok][0]), float(p2))
        return best_total, best_point

    for p3 in axis[ok_last]:
        if best_total is not None and p3 >= best_total:
            break
        for p2 in axis:
            if best_total is not None and p2 + p3 >= best_total:
                break
            if not bool(inner_ok(2, p2, p3)):
                continue
            ok = inner_ok(1, axis, p2 + p3)
            if not np.any(ok):
                continue
            total = axis[ok][0] + p2 + p3
            if best_total is None or total < best_total:
                best_total = float(total)
                best_point = (float(axis[ok][0]), float(p2), float(p3))
    return best_total, best_point


def verify_optimality_bruteforce(
    channel: ChannelRealization,
    req: SecrecyRequirement,
    grid_step: float,
    grid_max: float = 2.0,
) -> float:
    """Relative gap (grid optimum - closed form) / closed form.

    Nonnegative up to grid quantization when the recursion is truly optimal;
    raises on instances the closed form declares infeasible.
    """
    solution = solve_min_power(channel, req)
    if isinstance(solution, InfeasibleVerdict):
        raise ValueError("instance is infeasible; nothing to verify")
    grid_total, _ = bruteforce_min_power(channel, req, grid_step, grid_max)
    if grid_total is None:
        raise ValueError("grid too small or too coarse: no feasible grid point found")
    return (grid_total - solution.total_power_mw) / solution.total_power_mw


def maxmin_rate_reference(gains, phi: float, budget: float, steps: int = 200) -> Decimal:
    """The max-min common rate of ascending gains at stringency phi and a
    power budget, to about 60 digits: a bisection of `steps` halvings on the
    floor q in [0, log2(1 + gains[0] budget)], whose test runs the backward
    power recursion at 60 digits. A user's denominator must exceed DENOM_TOL
    times its gain, the package's stated feasibility rule. The floats are
    taken exactly, and 2**q of a midpoint is the geometric mean of 2**q at
    its bounds, which equals exp(q ln 2) to 60 digits at a seventh of the
    cost."""
    with localcontext() as ctx:
        ctx.prec = 60
        g = [Decimal(x) for x in reversed(gains)]
        phi, budget = Decimal(phi), Decimal(budget)
        floors = [Decimal(DENOM_TOL) * gain for gain in g]

        def fits(rho):
            # the strongest user sees no interference; each weaker one sees
            # the total power s of the users decoded after it
            rho_m1, phi_rho = rho - 1, phi * rho
            phi_rho_m1 = phi * rho_m1
            s = Decimal(0)
            for gain, floor in zip(g, floors):
                den = gain * (1 - phi_rho_m1 * s) - phi_rho
                if not den > floor:
                    return False
                s += rho_m1 * (1 + phi * s) * (1 + gain * s) / den
                if s > budget:  # every power is positive
                    return False
            return True

        # (q, 2**q) at each bound
        lo, rho_lo = Decimal(0), Decimal(1)
        rho_hi = 1 + g[-1] * budget
        hi = rho_hi.ln() / Decimal(2).ln()
        for _ in range(steps):
            mid, rho = (lo + hi) / 2, (rho_lo * rho_hi).sqrt()
            if fits(rho):
                lo, rho_lo = mid, rho
            else:
                hi, rho_hi = mid, rho
        return lo


_CHUNK = 1 << 17


def empirical_outage(
    channel: ChannelRealization,
    alloc: PowerAllocation,
    rate_pairs: list[RatePair],
    k: int,
    trials: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the secrecy outage of message k.

    Draws eavesdropper gains by analytic inversion of the exponential CDF on
    splittable sub-streams (one per fixed-size chunk), so the estimate is
    deterministic in (trials, seed) no matter how chunks would be scheduled.
    """
    if not (1 <= k <= channel.num_users):
        raise ValueError(f"user index {k} out of range 1..{channel.num_users}")
    if len(rate_pairs) != channel.num_users:
        raise ValueError("one rate pair per user required")
    if trials <= 0:
        raise ValueError("trials must be positive")
    pair = rate_pairs[k - 1]
    margin = pair.codeword_rate - pair.confidential_rate
    threshold = 2.0 ** margin - 1.0
    p_k = alloc.powers_mw[k - 1]
    s_next = sum(alloc.powers_mw[k:])

    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(int(seed)).spawn(n_chunks)
    hits = 0
    left = trials
    for child in children:
        n = min(_CHUNK, left)
        left -= n
        rng = np.random.Generator(np.random.Philox(child))
        # inverse CDF on U[0,1); 1-u is in (0,1] so the log never overflows
        ge = -channel.eaves_avg_gain * np.log1p(-rng.random(n))
        sinr = ge * p_k / (1.0 + ge * s_next)
        hits += int(np.count_nonzero(sinr > threshold))
    return hits / trials
