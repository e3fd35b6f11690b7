import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnoma import (
    ChannelRealization,
    PowerAllocation,
    RatePair,
    SecrecyRequirement,
    eaves_sinr,
    max_codeword_rate,
    optimal_decoding_order,
    secrecy_outage_closed_form,
    secrecy_outage_for_order,
    sinr_cross_message,
    sinr_own_message,
)
from oracles import empirical_outage

EPS_E1 = math.exp(-1.0)  # outage bound that makes the stringency exactly the mean gain

TWO_USER = ChannelRealization((5.0, 10.0), 1.0)
# minimum-power allocation for (Q=1, eps=e^-1) on TWO_USER, known in closed form
ALLOC = PowerAllocation((117.0 / 152.0, 0.125))


def test_requirement_stringency():
    req = SecrecyRequirement(1.0, EPS_E1)
    assert req.stringency(TWO_USER) == pytest.approx(1.0, rel=1e-12)
    assert SecrecyRequirement(1.0, 0.1).stringency(TWO_USER) == pytest.approx(math.log(10.0), rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        PowerAllocation(())
    with pytest.raises(ValueError):
        PowerAllocation((1.0, 0.0))
    with pytest.raises(ValueError):
        RatePair(1.0, 1.5)  # confidential above codeword
    with pytest.raises(ValueError):
        SecrecyRequirement(0.0, 0.5)
    with pytest.raises(ValueError):
        SecrecyRequirement(1.0, 1.0)


def test_sinr_own_worked_values():
    # weak user: interference from the strong user's message remains
    assert sinr_own_message(TWO_USER, PowerAllocation((0.76974, 0.125)), 1) == pytest.approx(
        2.36843, abs=5e-6
    )
    # strong user decodes last, interference-free
    assert sinr_own_message(TWO_USER, ALLOC, 2) == pytest.approx(10.0 * 0.125, rel=1e-12)
    single = ChannelRealization((10.0,), 1.0)
    assert sinr_own_message(single, PowerAllocation((0.125,)), 1) == pytest.approx(1.25, rel=1e-12)


def test_sinr_cross_worked_value():
    alloc = PowerAllocation((0.76974, 0.125))
    assert sinr_cross_message(TWO_USER, alloc, 2, 1) == pytest.approx(3.42107, abs=5e-6)
    # cross SINR never falls below the intended receiver's own SINR
    assert sinr_cross_message(TWO_USER, ALLOC, 2, 1) >= sinr_own_message(TWO_USER, ALLOC, 1)
    with pytest.raises(ValueError):
        sinr_cross_message(TWO_USER, ALLOC, 1, 2)


def test_eaves_sinr_worked_value():
    alloc = PowerAllocation((0.8, 0.2))
    assert eaves_sinr(2.0, alloc, 1) == pytest.approx(8.0 / 7.0, rel=1e-12)
    assert eaves_sinr(2.0, alloc, 2) == pytest.approx(0.4, rel=1e-12)


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
def test_eaves_sinr_monotone_in_gain(g_lo, g_hi):
    alloc = PowerAllocation((0.8, 0.2))
    lo, hi = sorted((g_lo, g_hi))
    assert eaves_sinr(lo, alloc, 1) <= eaves_sinr(hi, alloc, 1) + 1e-15


def test_max_codeword_rate_worked_values():
    assert max_codeword_rate(TWO_USER, ALLOC, 1) == pytest.approx(1.7520724865564146, rel=1e-12)
    assert max_codeword_rate(TWO_USER, ALLOC, 2) == pytest.approx(math.log2(2.25), rel=1e-12)
    # identical to log2(1 + own SINR)
    assert max_codeword_rate(TWO_USER, ALLOC, 1) == pytest.approx(
        math.log2(1.0 + sinr_own_message(TWO_USER, ALLOC, 1)), rel=1e-12
    )


def test_decoding_order_identity_and_ties():
    assert optimal_decoding_order(TWO_USER) == (1, 2)
    tied = ChannelRealization((2.0, 2.0, 5.0), 1.0)
    assert optimal_decoding_order(tied) == (1, 2, 3)  # stable on ties


def test_outage_single_user_closed_form():
    single = ChannelRealization((10.0,), 1.0)
    alloc = PowerAllocation((0.125,))
    # margin makes the exponent exactly -1
    assert secrecy_outage_closed_form(single, alloc, 1.0, 1) == pytest.approx(EPS_E1, rel=1e-12)


def test_outage_two_user_closed_form_active():
    for k in (1, 2):
        assert secrecy_outage_closed_form(TWO_USER, ALLOC, 1.0, k) == pytest.approx(
            EPS_E1, rel=1e-12
        )


def test_outage_zero_margin_is_one():
    # confidential rate equal to the full codeword rate leaves no protection
    q = max_codeword_rate(TWO_USER, ALLOC, 1)
    assert secrecy_outage_closed_form(TWO_USER, ALLOC, q, 1) == 1.0


def test_outage_is_one_when_rate_exceeds_codeword_rate():
    # negative margin against a feeble eavesdropper: the exponent would overflow
    feeble = ChannelRealization((5.0, 10.0), 1e-6)
    assert secrecy_outage_closed_form(feeble, ALLOC, 5.0, 1) == 1.0


def test_outage_vanishes_with_eavesdropper():
    feeble = ChannelRealization((5.0, 10.0), 1e-12)
    assert secrecy_outage_closed_form(feeble, ALLOC, 1.0, 1) < 1e-100


def test_outage_monotone_in_effective_gain():
    # raising the weakest assigned gain shrinks the outage
    prev = 1.1
    for g_weak in (2.0, 4.0, 8.0, 16.0):
        p = secrecy_outage_for_order((g_weak, 20.0), 1.0, ALLOC, 1.0, 1)
        assert p < prev
        prev = p


def test_outage_rejects_allocation_of_other_size():
    # a third power has no user to decode it
    with pytest.raises(ValueError, match="one gain per decode position required"):
        secrecy_outage_closed_form(TWO_USER, PowerAllocation((0.5, 0.25, 0.125)), 1.0, 2)


@pytest.mark.parametrize("q", [0.0, -1.0, math.nan])
def test_outage_rejects_rate_that_is_not_positive(q):
    # a nan rate once passed the check and gave a nan outage
    with pytest.raises(ValueError, match="^confidential rate must be positive$"):
        secrecy_outage_closed_form(TWO_USER, ALLOC, q, 1)


def test_general_order_matches_canonical_on_sorted_gains():
    for k in (1, 2):
        assert secrecy_outage_for_order(
            (5.0, 10.0), 1.0, ALLOC, 1.0, k
        ) == secrecy_outage_closed_form(TWO_USER, ALLOC, 1.0, k)


@settings(max_examples=100, deadline=None)
@given(
    gains=st.lists(st.floats(0.5, 60.0), min_size=1, max_size=5),
    powers=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5),
    q=st.floats(0.05, 2.0),
    ge=st.floats(0.05, 5.0),
)
def test_outage_stays_in_unit_interval(gains, powers, q, ge):
    n = min(len(gains), len(powers))
    ch = ChannelRealization(tuple(sorted(gains[:n])), ge)
    alloc = PowerAllocation(tuple(powers[:n]))
    for k in range(1, n + 1):
        p = secrecy_outage_closed_form(ch, alloc, q, k)
        assert 0.0 <= p <= 1.0


def _pairs(channel, alloc, q):
    return [
        RatePair(max_codeword_rate(channel, alloc, k), q)
        for k in range(1, channel.num_users + 1)
    ]


def test_empirical_outage_matches_closed_form():
    trials = 1_000_000
    pairs = _pairs(TWO_USER, ALLOC, 1.0)
    for k in (1, 2):
        closed = secrecy_outage_closed_form(TWO_USER, ALLOC, 1.0, k)
        emp = empirical_outage(TWO_USER, ALLOC, pairs, k, trials, seed=7)
        sigma = math.sqrt(closed * (1.0 - closed) / trials)
        assert abs(emp - closed) < 3.0 * sigma


def test_empirical_outage_deterministic():
    pairs = _pairs(TWO_USER, ALLOC, 1.0)
    a = empirical_outage(TWO_USER, ALLOC, pairs, 1, 300_000, seed=5)
    b = empirical_outage(TWO_USER, ALLOC, pairs, 1, 300_000, seed=5)
    assert a == b
    c = empirical_outage(TWO_USER, ALLOC, pairs, 1, 300_000, seed=6)
    assert a != c


def test_empirical_outage_stochastic_dominance():
    # a 10x stronger eavesdropper fails the same margin strictly more often
    strong = ChannelRealization((5.0, 10.0), 10.0)
    pairs = _pairs(TWO_USER, ALLOC, 1.0)
    weak_p = empirical_outage(TWO_USER, ALLOC, pairs, 1, 200_000, seed=9)
    strong_p = empirical_outage(strong, ALLOC, pairs, 1, 200_000, seed=9)
    assert strong_p > weak_p


def test_empirical_outage_rejects_bad_args():
    pairs = _pairs(TWO_USER, ALLOC, 1.0)
    with pytest.raises(ValueError):
        empirical_outage(TWO_USER, ALLOC, pairs, 3, 100, seed=0)
    with pytest.raises(ValueError):
        empirical_outage(TWO_USER, ALLOC, pairs[:1], 1, 100, seed=0)
    with pytest.raises(ValueError):
        empirical_outage(TWO_USER, ALLOC, pairs, 1, 0, seed=0)
