"""Downlink channel model: path loss, Rayleigh fading, normalized gain sampling.

All powers are linear milliwatts, all gains are linear (dimensionless after
normalization by receiver noise). dB/dBm conversion happens only at the edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def db_to_linear(x_db):
    """10^(x/10). Works on scalars and arrays."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0) if np.ndim(x_db) else 10.0 ** (float(x_db) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x) if np.ndim(x) else 10.0 * math.log10(float(x))


def dbm_to_mw(x_dbm):
    """dBm referenced to 1 mW, so the numerics are identical to db_to_linear."""
    return db_to_linear(x_dbm)


def mw_to_dbm(x_mw):
    return linear_to_db(x_mw)


@dataclass(frozen=True)
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
        if not (self.noise_user_mw > 0 and self.noise_eaves_mw > 0):
            raise ValueError("noise powers must be positive")

    @property
    def num_users(self):
        return len(self.distances_user)

    def eaves_avg_gain(self):
        """Mean normalized eavesdropper gain d_e^-alpha / sigma_e^2."""
        return self.distance_eaves ** (-self.path_loss_exponent) / self.noise_eaves_mw


@dataclass(frozen=True)
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


def _generator(seed):
    # Philox is counter-based: distinct integer keys give independent streams,
    # which keeps per-trial sampling parallel-safe and bit-reproducible.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _exp_draws(rng, mean, n):
    # inverse CDF on U[0,1); 1-u is in (0,1] so the log never overflows
    u = rng.random(n)
    return -mean * np.log1p(-u)


def sample_trial_gains(geometry: NetworkGeometry, seeds) -> np.ndarray:
    """Sorted (N, K) gain matrix, row i drawn from its own stream keyed by seeds[i].

    Row i equals `sample_realization(geometry, seeds[i]).user_gains` bit for
    bit; only the stream set-up runs per trial.
    """
    seeds = np.asarray(seeds).reshape(-1)
    u = np.empty((seeds.size, geometry.num_users))
    for row, seed in zip(u, seeds.tolist()):
        _generator(seed).random(out=row)
    fading = -np.log1p(-u)  # _exp_draws' inverse CDF at unit mean
    scale = np.asarray(geometry.distances_user, dtype=float) ** (-geometry.path_loss_exponent)
    return np.sort(scale * fading / geometry.noise_user_mw, axis=1)


def sample_realization(geometry: NetworkGeometry, seed: int) -> ChannelRealization:
    """Draw one Rayleigh realization for the given geometry.

    Identical (geometry, seed) pairs reproduce bit-identical realizations.
    """
    gains = sample_trial_gains(geometry, [seed])[0]
    return ChannelRealization(tuple(gains.tolist()), geometry.eaves_avg_gain())


def sample_gain_matrix(geometry: NetworkGeometry, seed: int, trials: int) -> np.ndarray:
    """Vectorized batch of `trials` realizations, one row per draw (rows sorted).

    Single Philox stream; meant for distribution checks and bulk statistics
    where per-trial stream isolation is not needed.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = _generator(seed)
    fading = _exp_draws(rng, 1.0, (trials, geometry.num_users))
    scale = np.asarray(geometry.distances_user, dtype=float) ** (-geometry.path_loss_exponent)
    return np.sort(scale * fading / geometry.noise_user_mw, axis=1)


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Independent 64-bit sub-seeds for per-trial streams, derived from one root.

    The mapping is deterministic in (seed, trials prefix): extending the batch
    keeps earlier sub-seeds unchanged, so reductions in trial-index order are
    stable however the trials are scheduled.
    """
    return np.random.SeedSequence(int(seed)).generate_state(int(trials), dtype=np.uint64)
