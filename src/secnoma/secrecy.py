"""Secrecy-rate core for superposition coding with SIC.

Users are indexed 1..K in decoding order. Under the canonical order (gains
ascending) message k is decoded by users k..K, each stronger than the last,
so the rate of message k is limited by user k itself. The eavesdropper is
treated pessimistically: she runs the same SIC chain, and only her average
gain is known, so secrecy is handled through an outage probability on the
wiretap rate pair (codeword rate, confidential rate).
"""
from __future__ import annotations

import math

from ._record import record
from .channel import ChannelRealization


def _sum(terms):
    """Sum of floats (or of numpy columns, element-wise) added left to right
    from 0.0: the order numpy's column adds take. Python's own sum() adds
    floats in this order only before 3.12, which compensates."""
    total = 0.0
    for term in terms:
        total += term
    return total


@record
class PowerAllocation:
    """Per-message transmit powers, linear mW, indexed by decoding position."""

    powers_mw: tuple[float, ...]

    def __post_init__(self):
        if len(self.powers_mw) == 0:
            raise ValueError("need at least one power")
        for p in self.powers_mw:
            if not (p > 0 and math.isfinite(p)):
                raise ValueError("powers must be positive and finite")

    @property
    def num_users(self):
        return len(self.powers_mw)

    @property
    def total_mw(self):
        return float(_sum(self.powers_mw))


@record
class RatePair:
    """Wiretap code pair: transmitted codeword rate and confidential rate, bits/use."""

    codeword_rate: float
    confidential_rate: float

    def __post_init__(self):
        if not (0.0 <= self.confidential_rate <= self.codeword_rate):
            raise ValueError("need 0 <= confidential rate <= codeword rate")


def _stringency(eaves_avg_gain, eps):
    """Composite stringency gamma_e_bar * ln(1/eps): the effective
    eavesdropper gain that every confidential rate must clear."""
    if not (0.0 < eps < 1.0):
        raise ValueError("outage bound must lie in (0, 1)")
    return eaves_avg_gain * math.log(1.0 / eps)


@record
class SecrecyRequirement:
    """QoS floor on the confidential rate plus the tolerated secrecy outage."""

    qos_rate: float
    outage_bound: float

    def __post_init__(self):
        if not (self.qos_rate > 0 and math.isfinite(self.qos_rate)):
            raise ValueError("QoS rate must be positive and finite")
        if not (0.0 < self.outage_bound < 1.0):
            raise ValueError("outage bound must lie in (0, 1)")

    def stringency(self, channel: ChannelRealization) -> float:
        """Composite stringency gamma_e_bar * ln(1/eps); rates are achievable
        only above this effective eavesdropper gain."""
        return _stringency(channel.eaves_avg_gain, self.outage_bound)


def _check_user_index(k, num_users):
    if not (1 <= k <= num_users):
        raise ValueError(f"user index {k} out of range 1..{num_users}")


def _suffix_power(alloc: PowerAllocation, k: int) -> float:
    # interference seen while decoding message k: all not-yet-cancelled messages
    return float(_sum(alloc.powers_mw[k:]))


def optimal_decoding_order(channel: ChannelRealization) -> tuple[int, ...]:
    """Decoding order that maximizes every message's rate simultaneously:
    ascending normalized gain, ties broken by original index (stable)."""
    gains = channel.user_gains
    return tuple(i + 1 for i in sorted(range(len(gains)), key=gains.__getitem__))


def sinr_own_message(channel: ChannelRealization, alloc: PowerAllocation, k: int) -> float:
    """SINR at user k for its own message after cancelling messages 1..k-1."""
    _check_user_index(k, channel.num_users)
    if alloc.num_users != channel.num_users:
        raise ValueError("allocation size must match user count")
    g = channel.user_gains[k - 1]
    return g * alloc.powers_mw[k - 1] / (1.0 + g * _suffix_power(alloc, k))


def sinr_cross_message(channel: ChannelRealization, alloc: PowerAllocation, m: int, k: int) -> float:
    """SINR at user m while it decodes (to cancel) message k, k < m."""
    _check_user_index(m, channel.num_users)
    _check_user_index(k, channel.num_users)
    if not k < m:
        raise ValueError("cross decoding needs k < m")
    g = channel.user_gains[m - 1]
    return g * alloc.powers_mw[k - 1] / (1.0 + g * _suffix_power(alloc, k))


def eaves_sinr(eaves_gain: float, alloc: PowerAllocation, k: int) -> float:
    """Eavesdropper SINR on message k for one realized gain, assuming she has
    already stripped messages 1..k-1 (worst case for secrecy)."""
    _check_user_index(k, alloc.num_users)
    if not (eaves_gain > 0):
        raise ValueError("eavesdropper gain must be positive")
    return eaves_gain * alloc.powers_mw[k - 1] / (1.0 + eaves_gain * _suffix_power(alloc, k))


def max_codeword_rate(channel: ChannelRealization, alloc: PowerAllocation, k: int) -> float:
    """Largest codeword rate of message k decodable by every assigned user.

    The binding receiver is the one with the smallest gain among users k..K;
    under the canonical order that is user k itself.
    """
    _check_user_index(k, channel.num_users)
    g = min(channel.user_gains[k - 1 :])
    s_next = _suffix_power(alloc, k)
    s_here = s_next + alloc.powers_mw[k - 1]
    return math.log2((1.0 + g * s_here) / (1.0 + g * s_next))


def _outage_terms(g_t, p_k, s_next, q):
    """(num, den) of the outage exponent -num / (gamma_e_bar * den) for the
    pair (max codeword rate at effective gain g_t, rate q); num has the sign
    of the rate margin."""
    s_here = s_next + p_k
    rho = 2.0 ** q
    ratio = (1.0 + g_t * s_here) / (1.0 + g_t * s_next)
    return ratio - rho, rho * s_here - ratio * s_next


def _outage_closed_form(g_t, p_k, s_next, eaves_avg_gain, q):
    """Outage of the pair (max codeword rate at effective gain g_t, rate q).

    Exponential eavesdropper gain integrates in closed form. A nonpositive
    rate margin leaves no protection at all: the outage is 1, and the
    exponent, nonnegative there, is never evaluated (it can overflow). The
    denominator is provably positive for this rate pair whenever q > 0
    (the SIC residue s_next is below the full suffix s_here); the den <= 0
    branch is a conservative guard only.
    """
    if not (q > 0):
        raise ValueError("confidential rate must be positive")
    num, den = _outage_terms(g_t, p_k, s_next, q)
    if num <= 0.0 or den <= 0.0:
        return 1.0
    return math.exp(-num / (eaves_avg_gain * den))


def secrecy_outage_closed_form(channel: ChannelRealization, alloc: PowerAllocation, q: float, k: int) -> float:
    """P(codeword rate - q < eavesdropper rate on message k), canonical order."""
    return secrecy_outage_for_order(channel.user_gains, channel.eaves_avg_gain, alloc, q, k)


def secrecy_outage_for_order(
    gains_by_position: tuple[float, ...],
    eaves_avg_gain: float,
    alloc: PowerAllocation,
    q: float,
    position: int,
) -> float:
    """Same outage, but for an arbitrary decoding order.

    gains_by_position[j] is the gain of whichever user sits at decode
    position j+1; powers stay attached to positions. The codeword rate of the
    message at `position` is set by the weakest gain among positions >= it.
    """
    if len(gains_by_position) != alloc.num_users:
        raise ValueError("one gain per decode position required")
    _check_user_index(position, alloc.num_users)
    g_t = min(gains_by_position[position - 1 :])
    if not (g_t > 0):
        raise ValueError("gains must be positive")
    return _outage_closed_form(
        g_t, alloc.powers_mw[position - 1], _suffix_power(alloc, position), eaves_avg_gain, q
    )
