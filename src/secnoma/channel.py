"""Downlink channel model: path loss, Rayleigh fading, normalized gain sampling.

All powers are linear milliwatts, all gains are linear (dimensionless after
normalization by receiver noise). dB/dBm conversion happens only at the edges.
"""
from __future__ import annotations

import math
import numbers

from ._lazy import lazy_module
from ._record import record

np = lazy_module("numpy")


# A Python number takes the scalar branch before numpy is asked for its
# dimension, so the scalar designs never load numpy.
def db_to_linear(x_db):
    """10^(x/10). Works on scalars and arrays."""
    if isinstance(x_db, numbers.Real) or not np.ndim(x_db):
        return 10.0 ** (float(x_db) / 10.0)
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    if isinstance(x, numbers.Real) or not np.ndim(x):
        return 10.0 * math.log10(float(x))
    return 10.0 * np.log10(x)


def dbm_to_mw(x_dbm):
    """dBm referenced to 1 mW, so the numerics are identical to db_to_linear."""
    return db_to_linear(x_dbm)


def mw_to_dbm(x_mw):
    return linear_to_db(x_mw)


# -ln(2**-53): the largest unit-mean exponential draw of the sampler
_LARGEST_DRAW = 53 * math.log(2.0)


@record
class NetworkGeometry:
    """Static deployment: user/eavesdropper distances, path-loss exponent, noise floors.

    distances_user: one entry per user, meters.
    noise_user_mw / noise_eaves_mw: receiver noise power, linear mW.
    """

    distances_user: tuple[float, ...]
    distance_eaves: float
    path_loss_exponent: float
    noise_user_mw: float
    noise_eaves_mw: float

    def __post_init__(self):
        if len(self.distances_user) == 0:
            raise ValueError("need at least one user")
        for d in self.distances_user:
            if not (d > 0 and math.isfinite(d)):
                raise ValueError("user distances must be positive and finite")
        if not (self.distance_eaves > 0 and math.isfinite(self.distance_eaves)):
            raise ValueError("eavesdropper distance must be positive and finite")
        if not (self.path_loss_exponent > 0):
            raise ValueError("path-loss exponent must be positive")
        for noise in (self.noise_user_mw, self.noise_eaves_mw):
            if not (noise > 0 and math.isfinite(noise)):
                raise ValueError("noise powers must be positive and finite")
        # the sampler scales a draw by the path gain d**-alpha, then divides
        # by the noise: both steps must stay finite for the largest draw
        floor = min(self.noise_user_mw, self.noise_eaves_mw)
        for d in (*self.distances_user, self.distance_eaves):
            try:
                peak = float(d) ** -float(self.path_loss_exponent) * _LARGEST_DRAW
            except OverflowError:
                peak = math.inf
            if not (0.0 < peak < math.inf and peak / floor < math.inf):
                raise ValueError("path gains d**-alpha must be positive and finite over the noise floor")

    @property
    def num_users(self):
        return len(self.distances_user)

    def eaves_avg_gain(self):
        """Mean normalized eavesdropper gain d_e^-alpha / sigma_e^2."""
        return self.distance_eaves ** (-self.path_loss_exponent) / self.noise_eaves_mw


# the sweep spec's geometry keys, which the CLI's geometry options share
_GEOMETRY_KEYS = {"d_user", "d_eave", "alpha", "noise_dbm", "eaves_noise_dbm"}


def _geometry(fixed, num) -> NetworkGeometry:
    """`num` users at d_user from fixed geometry keys; alpha = 4, -70 dBm and
    eavesdropper noise = user noise unless set."""
    return NetworkGeometry(
        distances_user=(fixed["d_user"],) * num,
        distance_eaves=fixed["d_eave"],
        path_loss_exponent=fixed.get("alpha", 4.0),
        noise_user_mw=dbm_to_mw(fixed.get("noise_dbm", -70.0)),
        noise_eaves_mw=dbm_to_mw(fixed.get("eaves_noise_dbm", fixed.get("noise_dbm", -70.0))),
    )


@record
class ChannelRealization:
    """One fading draw: normalized user gains sorted ascending, plus the
    eavesdropper's mean normalized gain (only its average is known).

    user_gains[k] = d_k^-alpha * |g_k|^2 / sigma_u^2 with |g_k|^2 ~ Exp(1).
    """

    user_gains: tuple[float, ...]
    eaves_avg_gain: float

    def __post_init__(self):
        if len(self.user_gains) == 0:
            raise ValueError("need at least one user gain")
        prev = 0.0
        for g in self.user_gains:
            if not (g > 0 and math.isfinite(g)):
                raise ValueError("user gains must be positive and finite")
            if g < prev:
                raise ValueError("user gains must be sorted ascending")
            prev = g
        if not (self.eaves_avg_gain > 0 and math.isfinite(self.eaves_avg_gain)):
            raise ValueError("eavesdropper average gain must be positive and finite")

    @property
    def num_users(self):
        return len(self.user_gains)


def _require_integer(name, value):
    """Reject a float or a bool where a count or a seed belongs: either
    would run truncated. numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def sample_trial_gains(geometry: NetworkGeometry, seeds) -> np.ndarray:
    """Sorted (N, K) gain matrix, row i drawn from its own stream keyed by seeds[i].

    Row i is drawn from `Philox(SeedSequence(seeds[i]))`, numpy's stream;
    seeds must be integers in [0, 2**64).
    """
    from ._draw import _exponentials, _gains_from_draws, _seed_array, _trial_uniforms

    return _gains_from_draws(geometry, _exponentials(_trial_uniforms(_seed_array(seeds), geometry.num_users)))


def sample_realization(geometry: NetworkGeometry, seed: int) -> ChannelRealization:
    """Draw one Rayleigh realization for the given geometry.

    Identical (geometry, seed) pairs reproduce bit-identical realizations:
    row 0 of `sample_trial_gains(geometry, [seed])`, drawn on Python ints and
    floats, so the call never loads numpy.
    """
    from ._draw import _realization_gains

    return ChannelRealization(_realization_gains(geometry, seed), geometry.eaves_avg_gain())


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Independent 64-bit sub-seeds for per-trial streams, derived from one root.

    The mapping is deterministic in (seed, trials prefix): extending the batch
    keeps earlier sub-seeds unchanged, so reductions in trial-index order are
    stable however the trials are scheduled. The sub-seeds of a root >= 0
    are `SeedSequence(seed).generate_state(trials, uint64)` bit for bit.
    """
    from ._draw import _trial_seeds

    for name, value in (("seed", seed), ("trials", trials)):
        _require_integer(name, value)
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    return _trial_seeds(int(seed), int(trials))
