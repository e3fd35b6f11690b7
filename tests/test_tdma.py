import math

import numpy as np
import pytest

from secnoma import (
    ChannelRealization,
    InfeasibleReason,
    InfeasibleVerdict,
    MaxMinComparison,
    SecrecyRequirement,
    TdmaMinPower,
    TimeAllocation,
    compare_maxmin,
    noma_rate_region_boundary,
    solve_maxmin_bisection,
    solve_maxmin_two_user,
    solve_min_power,
    tdma_maxmin,
    tdma_min_power,
    tdma_user_rate,
)
from secnoma.maxmin import _BRACKET_OVERFLOW, DEFAULT_TOL
from secnoma.secrecy import _sum

EPS_E1 = math.exp(-1.0)

TWO_USER = ChannelRealization((5.0, 10.0), 1.0)

# full-budget per-slot rates of the (5, 10) instance at unit power, stringency 1
C1 = math.log2(3.0)
C2 = math.log2(5.5)


def test_equal_time_worked_instance():
    res = tdma_maxmin(TWO_USER, EPS_E1, 1.0, "equal_time")
    assert res.rate == pytest.approx(0.792481250360578, abs=1e-12)
    assert res.rate == pytest.approx(C1 / 2.0, abs=1e-12)
    assert res.time.fractions == (0.5, 0.5)


def test_optimal_time_worked_instance():
    res = tdma_maxmin(TWO_USER, EPS_E1, 1.0, "optimal_time")
    assert res.rate == pytest.approx(0.9638296302454304, abs=1e-12)
    assert res.rate == pytest.approx(C1 * C2 / (C1 + C2), abs=1e-12)
    t1, t2 = res.time.fractions
    assert t1 == pytest.approx(C2 / (C1 + C2), rel=1e-12)
    # optimal slots equalize the per-user rates
    assert t1 * C1 == pytest.approx(res.rate, rel=1e-12)
    assert t2 * C2 == pytest.approx(res.rate, rel=1e-12)
    assert t1 + t2 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("mode", ["optimal_time", "equal_time"])
def test_overflowing_slot_rates_raise(mode):
    # every gain times the budget overflows, so every slot rate is infinite;
    # with the stringency times the budget overflowing too, each is inf/inf
    for gains, eaves, budget in (((1e200, 1e201), 1.0, 1e110), ((1e300, 1e301), 1e299, 1e10)):
        with pytest.raises(OverflowError, match=_BRACKET_OVERFLOW):
            tdma_maxmin(ChannelRealization(gains, eaves), 0.3, budget, mode)


def test_one_overflowing_slot_takes_no_time():
    # only the strong user's slot rate is infinite: it needs no time at all
    channel = ChannelRealization((10.0, 1e201), 1.0)
    opt = tdma_maxmin(channel, 0.3, 1e110, "optimal_time")
    weak = tdma_user_rate(10.0, 1.0, 0.3, 1e110, 1.0)
    assert opt.rate == weak
    assert opt.time.fractions == (1.0, 0.0)
    assert tdma_maxmin(channel, 0.3, 1e110, "equal_time").rate == weak / 2


@pytest.mark.parametrize("mode", ["optimal_time", "equal_time"])
def test_overflowing_stringency_slot_rates_are_zero(mode):
    # the stringency times the budget overflows while the gains' products do
    # not: each slot rate, log2 of a ratio that reads 0.0, is below zero
    res = tdma_maxmin(ChannelRealization((1.0, 2.0), 1e300), 0.3, 1e10, mode)
    assert res.rate == 0.0
    assert res.time.fractions == (0.5, 0.5)
    assert tdma_user_rate(1.0, 1e300, 0.3, 1e10, 0.5) == 0.0


def test_user_rate_clips_and_scales():
    assert tdma_user_rate(0.5, 1.0, EPS_E1, 1.0, 0.7) == 0.0  # gain below stringency
    full = tdma_user_rate(5.0, 1.0, EPS_E1, 1.0, 1.0)
    assert full == pytest.approx(C1, abs=1e-12)
    for t in (0.0, 0.25, 0.5):
        assert tdma_user_rate(5.0, 1.0, EPS_E1, 1.0, t) == pytest.approx(t * full, rel=1e-12)


def test_zero_rate_instance_reports_equal_slots():
    ch = ChannelRealization((0.5, 10.0), 1.0)
    for mode in ("equal_time", "optimal_time"):
        res = tdma_maxmin(ch, EPS_E1, 1.0, mode)
        assert res.rate == 0.0
        assert res.time.fractions == (0.5, 0.5)


def test_optimal_time_beats_grid_three_users():
    ch = ChannelRealization((5.0, 10.0, 20.0), 1.0)
    closed = tdma_maxmin(ch, EPS_E1, 1.0, "optimal_time")
    c = np.array([C1, C2, math.log2(10.5)])
    t1, t2 = np.meshgrid(np.linspace(0, 1, 201), np.linspace(0, 1, 201))
    t3 = 1.0 - t1 - t2
    ok = t3 >= 0.0
    rates = np.minimum(np.minimum(t1 * c[0], t2 * c[1]), t3 * c[2])
    grid_best = float(rates[ok].max())
    assert grid_best <= closed.rate + 1e-12
    assert closed.rate - grid_best < 0.02  # grid quantization only
    assert closed.rate == pytest.approx(1.0 / float(np.sum(1.0 / c)), rel=1e-12)


def test_min_power_single_user_matches_superposition():
    ch = ChannelRealization((10.0,), 1.0)
    res = tdma_min_power(ch, 1.0, EPS_E1)
    assert isinstance(res, TdmaMinPower)
    assert res.per_user_mw[0] == pytest.approx(0.125, rel=1e-12)
    assert res.avg_power_mw == res.peak_power_mw == res.per_user_mw[0]


def test_min_power_worked_instance():
    res = tdma_min_power(TWO_USER, 1.0, EPS_E1)
    # each user must carry rate 2 in half the frame: rho = 4 per slot
    assert res.per_user_mw == pytest.approx((3.0, 0.5), rel=1e-12)
    assert res.avg_power_mw == pytest.approx(1.75, rel=1e-12)
    assert res.peak_power_mw == pytest.approx(3.0, rel=1e-12)
    # superposition meets the same floors with less power on either summary
    noma = solve_min_power(TWO_USER, SecrecyRequirement(1.0, EPS_E1))
    assert noma.total_power_mw < res.avg_power_mw < res.peak_power_mw


def test_min_power_verdict_names_every_failing_user():
    res = tdma_min_power(ChannelRealization((2.0, 5.0), 0.6), 1.0, EPS_E1)
    assert isinstance(res, InfeasibleVerdict)
    assert res.reason is InfeasibleReason.TDMA_QOS
    assert res.failing_user_indices == frozenset({1})
    res = tdma_min_power(ChannelRealization((3.0, 3.4), 1.0), 1.0, EPS_E1)
    assert res.failing_user_indices == frozenset({1, 2})


def test_compare_worked_instance():
    cmp = compare_maxmin(TWO_USER, EPS_E1, 1.0)
    assert cmp.rate_noma == pytest.approx(1.0336483814804196, abs=1e-12)
    assert cmp.rate_tdma_optimal == pytest.approx(0.9638296302454304, abs=1e-12)
    assert cmp.rate_tdma_equal == pytest.approx(0.792481250360578, abs=1e-12)
    assert cmp.ratio == pytest.approx(1.0724388927711326, abs=1e-12)


def test_compare_equal_gains_ties():
    cmp = compare_maxmin(ChannelRealization((10.0, 10.0), 1.0), EPS_E1, 1.0)
    assert cmp.rate_noma == pytest.approx(0.5 * math.log2(5.5), abs=1e-12)
    assert abs(cmp.rate_noma - cmp.rate_tdma_optimal) < 1e-8
    assert cmp.ratio == pytest.approx(1.0, abs=1e-8)


def test_compare_accepts_bisection_within_its_tolerance():
    # K=8: the bisection stops 1.1e-11 below optimal TDMA, inside its 1e-10
    # tolerance; at a tolerance of 1e-16 it lands above
    channel = ChannelRealization(
        (
            0.23308825929443433, 0.4362915165279184, 0.5060844708519003, 0.5389669664843307,
            0.5747782222922327, 0.5850233887311614, 0.79567796277769, 0.9976287454856604,
        ),
        0.24414062500000003,
    )
    cmp = compare_maxmin(channel, 0.3849169743746834, 10.441461965199593)
    assert cmp.rate_noma < cmp.rate_tdma_optimal < cmp.rate_noma + DEFAULT_TOL


def test_compare_raises_when_infeasible():
    with pytest.raises(ValueError):
        compare_maxmin(ChannelRealization((0.5, 10.0), 1.0), EPS_E1, 1.0)


def test_compare_raises_when_optimal_tdma_has_no_rate():
    # far below the noise floor every slot rate rounds to 0, while the closed
    # form still reads a positive rate: the ratio has no value
    channel = ChannelRealization((10.0**0.08, 10.0**1.06), 10.0**-1.5)
    with pytest.raises(ValueError, match="^optimal-time TDMA has no positive rate at this budget"):
        compare_maxmin(channel, 0.3678794, 10.0**-17.3)
    assert solve_maxmin_two_user(channel, 0.3678794, 10.0**-17.3).rate > 0.0
    assert tdma_maxmin(channel, 0.3678794, 10.0**-17.3, "optimal_time").rate == 0.0


def _outcome(call):
    try:
        return call()
    except (ValueError, RuntimeError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("num", [1, 3, 4, 5, 6, 7, 8])
def test_compare_equals_the_public_solvers_bit_for_bit(num):
    # beyond two users compare_maxmin's rates are the bisection's and
    # tdma_maxmin's; an infeasible instance raises where the bisection
    # gives a verdict, and an overflowing or too-coarse one raises the same
    # error in both
    rng = np.random.default_rng(1900 + num)
    for i in range(40):
        phi = float(rng.uniform(0.1, 2.0))
        budget = float(10.0 ** rng.uniform(-1.0, 2.0))
        if i % 5 == 1:
            # every gain times the budget overflows
            phi, budget = 100.0 * phi, 1e308
        elif i % 5 == 2:
            budget = 1e-14  # the rate is below the default tolerance
        gains = np.sort(phi * 10.0 ** rng.uniform(-0.2, 2.5, num))
        channel = ChannelRealization(tuple(gains.tolist()), phi)
        noma = _outcome(lambda: solve_maxmin_bisection(channel, EPS_E1, budget))
        cmp = _outcome(lambda: compare_maxmin(channel, EPS_E1, budget))
        if isinstance(noma, InfeasibleVerdict):
            assert cmp == (ValueError, "instance infeasible: no positive common rate exists")
        elif isinstance(noma, tuple):
            assert cmp == noma
        else:
            opt = tdma_maxmin(channel, EPS_E1, budget, "optimal_time").rate
            equal = tdma_maxmin(channel, EPS_E1, budget, "equal_time").rate
            assert cmp == MaxMinComparison(noma.rate, opt, equal, noma.rate / opt)


def test_dominance_on_random_instances():
    rng = np.random.default_rng(77)
    done = 0
    while done < 25:
        k = int(rng.integers(2, 5))
        gains = np.sort(rng.uniform(2.0, 30.0, size=k))
        if float(np.min(gains[1:] / gains[:-1])) < 1.1:
            continue  # keep gains well separated so the strict ordering is testable
        ge = float(rng.uniform(0.1, 1.0))
        eps = float(rng.uniform(0.1, 0.6))
        if gains[0] <= ge * math.log(1.0 / eps):
            continue
        ch = ChannelRealization(tuple(float(g) for g in gains), ge)
        p = float(rng.uniform(0.5, 5.0))
        cmp = compare_maxmin(ch, eps, p)
        assert cmp.rate_noma > cmp.rate_tdma_optimal >= cmp.rate_tdma_equal - 1e-12
        assert cmp.ratio > 1.0
        done += 1


def test_region_endpoints_coincide():
    reg = noma_rate_region_boundary(TWO_USER, EPS_E1, 1.0)
    assert reg.noma.shape == reg.tdma.shape == (201, 2)
    assert reg.noma[0] == pytest.approx(reg.tdma[0], abs=1e-10)
    assert reg.noma[-1] == pytest.approx(reg.tdma[-1], abs=1e-10)
    assert reg.noma[0, 1] == 0.0 and reg.noma[-1, 0] == 0.0
    assert reg.noma[0, 0] == pytest.approx(C1, abs=1e-12)
    assert reg.noma[-1, 1] == pytest.approx(C2, abs=1e-12)


def test_region_concave_and_dominant():
    reg = noma_rate_region_boundary(TWO_USER, EPS_E1, 1.0, samples=401)
    r1, r2 = reg.noma[:, 0], reg.noma[:, 1]
    assert np.all(np.diff(r2) > 0) and np.all(np.diff(r1) < 0)
    slopes = np.diff(r1) / np.diff(r2)
    assert np.all(np.diff(slopes) <= 1e-9)  # concave boundary for unequal gains
    # superposition encloses the orthogonal chord
    chord = np.interp(r2, reg.tdma[:, 1], reg.tdma[:, 0])
    assert np.all(r1 >= chord - 1e-9)
    interior = slice(1, -1)
    assert np.all(r1[interior] > chord[interior])


def test_region_affine_for_equal_gains():
    reg = noma_rate_region_boundary(ChannelRealization((10.0, 10.0), 1.0), EPS_E1, 1.0)
    total = reg.noma[:, 0] + reg.noma[:, 1]
    assert float(np.ptp(total)) < 1e-9  # straight line of slope -1
    chord = np.interp(reg.noma[:, 1], reg.tdma[:, 1], reg.tdma[:, 0])
    assert np.max(np.abs(reg.noma[:, 0] - chord)) < 1e-9


def test_region_validation():
    with pytest.raises(ValueError):
        noma_rate_region_boundary(ChannelRealization((5.0, 10.0, 20.0), 1.0), EPS_E1, 1.0)
    with pytest.raises(ValueError):
        noma_rate_region_boundary(TWO_USER, EPS_E1, 1.0, samples=2)
    # a count given as a float or a string is named, not left to numpy
    for samples in (3.5, 4.0, "5"):
        with pytest.raises(ValueError, match=f"^samples must be an integer, not {samples!r}$"):
            noma_rate_region_boundary(TWO_USER, EPS_E1, 1.0, samples=samples)
    assert len(noma_rate_region_boundary(TWO_USER, EPS_E1, 1.0, samples=np.int64(3)).noma) == 3
    with pytest.raises(ValueError):
        noma_rate_region_boundary(ChannelRealization((0.5, 10.0), 1.0), EPS_E1, 1.0)
    for budget in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^power budget must be positive and finite$"):
            noma_rate_region_boundary(TWO_USER, EPS_E1, budget)
    # (1 + g1 P)(1 + phi P) overflows above about 1e154, where numpy would warn and give nan
    with pytest.raises(OverflowError, match="^the rate region's products overflow$"):
        noma_rate_region_boundary(TWO_USER, EPS_E1, 1e200)
    reg = noma_rate_region_boundary(TWO_USER, EPS_E1, 1e153)
    assert np.isfinite(reg.noma).all() and np.isfinite(reg.tdma).all()


def test_time_allocation_validation():
    TimeAllocation((0.4, 0.6))
    with pytest.raises(ValueError):
        TimeAllocation((0.6, 0.6))
    with pytest.raises(ValueError):
        TimeAllocation((-0.1, 0.5))
    with pytest.raises(ValueError):
        TimeAllocation(())
    # a sum that overflows is still a frame overrun, not an OverflowError
    with pytest.raises(ValueError, match="^slot fractions must fit in a unit frame$"):
        TimeAllocation((1e308, 1e308))


@pytest.mark.parametrize("num", [40_000, 40_255])
def test_equal_slots_fit_the_frame_at_many_users(num):
    # K copies of 1/K added left to right (Python's sum() compensates from
    # 3.12) exceed 1 + 1e-12 at these K
    assert _sum([1.0 / num] * num) > 1.0 + 1e-12
    assert TimeAllocation((1.0 / num,) * num).fractions == (1.0 / num,) * num
    channel = ChannelRealization(tuple(np.linspace(2.0, 5.0, num).tolist()), 0.5)
    result = tdma_maxmin(channel, 0.3, 10.0, "equal_time")
    assert result.time.fractions == (1.0 / num,) * num
    assert result.rate > 0.0


def test_user_rate_validation():
    with pytest.raises(ValueError):
        tdma_user_rate(5.0, 1.0, EPS_E1, 1.0, 1.5)
    with pytest.raises(ValueError):
        tdma_user_rate(5.0, 1.0, 1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        tdma_user_rate(-5.0, 1.0, EPS_E1, 1.0, 0.5)
    for budget in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^power budget must be positive and finite$"):
            tdma_user_rate(5.0, 1.0, EPS_E1, budget, 0.5)
    with pytest.raises(ValueError):
        tdma_maxmin(TWO_USER, EPS_E1, 1.0, "greedy")
