"""Downlink channel model: path loss, Rayleigh fading, normalized gain sampling.

All powers are linear milliwatts, all gains are linear (dimensionless after
normalization by receiver noise). dB/dBm conversion happens only at the edges.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ._lazy import lazy_module

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


# numpy's SeedSequence and Philox4x64-10 (Salmon et al., "Parallel Random
# Numbers: As Easy as 1, 2, 3", SC'11) in whole-array arithmetic, so every
# trial's stream is keyed and drawn at once: row i of `_trial_uniforms` equals
# `Generator(Philox(SeedSequence(seeds[i]))).random(K)` bit for bit. Philox is
# counter-based, so distinct keys give independent, reproducible streams.
_MASK32 = 0xFFFFFFFF
_SEED_RANGE = "fading seeds must be integers in [0, 2**64)"
_POOL_HASH = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # SeedSequence INIT_B, MULT_B
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _require_integer(name, value):
    """Reject a float or a bool where a count or a seed belongs: either
    would run truncated. numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def _seed_array(seeds) -> np.ndarray:
    """Per-trial seeds as a flat uint64 array; anything but integers in
    [0, 2**64) is rejected."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        flat = seeds.reshape(-1)
        if flat.dtype.kind == "i" and flat.size and flat.min() < 0:
            raise ValueError(_SEED_RANGE)
        return flat.astype(np.uint64)
    # element by element: numpy would coerce a mix of large and negative
    # Python ints to float64 and silently round them
    flat = np.asarray(seeds, dtype=object).reshape(-1).tolist()
    if not all(isinstance(s, numbers.Integral) and 0 <= s < 2**64 for s in flat):
        raise ValueError(_SEED_RANGE)
    return np.array(flat, dtype=np.uint64)


def _hash_constants(init, mult, num):
    """The first `num` hash constants of a SeedSequence pass, init * mult**i
    mod 2**32: they step the same way whatever the data."""
    const = np.full(num, mult, dtype=np.uint32)
    const[0] = init
    return np.multiply.accumulate(const, out=const)


def _hashmix(words, xor, mul, scratch=None):
    """SeedSequence's hashmix, in place: each word xor its hash constant,
    times the next constant, xor its own high half (shifted into `scratch`
    if given)."""
    words ^= xor
    words *= mul
    words ^= np.right_shift(words, 16, out=scratch)
    return words


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _generate_state(words):
    """SeedSequence.generate_state(n, uint64) from uint32 `words`, the pool
    cycled to 2n words along the last axis; hashed in place."""
    const = _hash_constants(*_STATE_HASH, words.shape[-1] + 1)
    # one row of words (`trial_seeds`) shifts into its spent constants, so
    # its peak stays at two buffers of its size
    _hashmix(words, const[:-1], const[1:], scratch=const[:-1] if words.ndim == 1 else None)
    # pairs of words assembled little-endian, as numpy does on any platform
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _philox_keys(seeds):
    """(2, N, 1) Philox keys: `SeedSequence(seeds[i]).generate_state(2, uint64)`."""
    low = (seeds & _MASK32).astype(np.uint32)
    # a seed below 2**32 is one entropy word, but the pool hashes a missing
    # word as 0, so every seed is the pair (low, high) padded with zeros
    pool = [low, (seeds >> 32).astype(np.uint32), np.zeros_like(low), np.zeros_like(low)]
    # the pool pass steps its hash constant once per hash: the four entropy
    # words, then each source word once for every other word
    const = _hash_constants(*_POOL_HASH, 17)
    for step, word in enumerate(pool):
        _hashmix(word, const[step], const[step + 1])
    step = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src].copy(), const[step], const[step + 1]))
                step += 1
    return _generate_state(np.stack(pool, axis=1)).T[:, :, None]


def _mulhilo(a, b, b_lo, b_hi):
    """High and low 64 bits of the 128-bit products a * b, from 32-bit halves
    (b_lo, b_hi of b)."""
    a_lo, a_hi = a & _MASK32, a >> 32
    # (lo_lo >> 32) + (hi_lo & MASK) + lo_hi is at most (2**32 - 1)**2
    # + 2 (2**32 - 1) = 2**64 - 1, so the middle sum cannot wrap
    middle = a_lo * b_hi
    a_lo *= b_lo
    a_lo >>= 32
    middle += a_lo
    high = a_hi * b_hi
    a_hi *= b_lo
    middle += a_hi & _MASK32
    a_hi >>= 32
    high += a_hi
    middle >>= 32
    high += middle
    return high, a * b


# Trials keyed and drawn together: the rounds' temporaries take about 180
# bytes a trial for every four uniforms, so a block of this many trials
# bounds them at a few MB instead of growing with the trial count.
_DRAW_BLOCK = 16384


def _trial_uniforms(seeds, num):
    """(N, num) uniforms on [0, 1), row i the first `num` doubles of
    `Generator(Philox(SeedSequence(seeds[i])))`; each trial's draws nest, so
    a column prefix is the draw at a smaller count. Trials are drawn
    _DRAW_BLOCK at a time; each row depends on its own seed alone."""
    # one block is returned as drawn: an output made up front would be live
    # beside the rounds' temporaries and raise the peak by its own size
    if seeds.size <= _DRAW_BLOCK:
        return _block_uniforms(seeds, num)
    out = np.empty((seeds.size, num))
    for start in range(0, seeds.size, _DRAW_BLOCK):
        out[start : start + _DRAW_BLOCK] = _block_uniforms(seeds[start : start + _DRAW_BLOCK], num)
    return out


def _block_uniforms(seeds, num):
    """`_trial_uniforms` on one block of seeds, all at once."""
    key = _philox_keys(seeds)
    mult, weyl = (np.array(c, dtype=np.uint64).reshape(2, 1, 1) for c in (_PHILOX_M, _PHILOX_W))
    mult_lo, mult_hi = mult & _MASK32, mult >> 32
    blocks = -(-num // 4)
    # the four counter words as (even, odd) = ((c0, c2), (c1, c3)); numpy
    # increments the counter before each block, so block b runs on b + 1
    even = np.zeros((2, seeds.size, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + weyl
        high, low = _mulhilo(even, mult, mult_lo, mult_hi)
        even, odd = high[::-1] ^ odd ^ key, low[::-1]
    # each block yields c0, c1, c2, c3 in turn
    words = np.stack([even, odd], axis=-1).transpose(1, 2, 0, 3).reshape(seeds.size, 4 * blocks)
    return (words[:, :num] >> 11) * 2.0**-53


def _gains_from_uniforms(geometry: NetworkGeometry, u) -> np.ndarray:
    """Sorted gains from an (N, K) block of uniforms: the exponential inverse
    CDF at unit mean, the path-loss scale and the noise floor, computed in
    one output array."""
    # 1 - u is in (0, 1] for u in [0, 1), so the log never overflows
    gains = np.negative(u)
    np.log1p(gains, out=gains)
    np.negative(gains, out=gains)
    gains *= np.asarray(geometry.distances_user, dtype=float) ** (-geometry.path_loss_exponent)
    gains /= geometry.noise_user_mw
    gains.sort(axis=1)
    return gains


def sample_trial_gains(geometry: NetworkGeometry, seeds) -> np.ndarray:
    """Sorted (N, K) gain matrix, row i drawn from its own stream keyed by seeds[i].

    Row i is drawn from `Philox(SeedSequence(seeds[i]))`, numpy's stream, and
    equals `sample_realization(geometry, seeds[i]).user_gains` bit for bit.
    Seeds must be integers in [0, 2**64).
    """
    seeds = _seed_array(seeds)
    return _gains_from_uniforms(geometry, _trial_uniforms(seeds, geometry.num_users))


def sample_realization(geometry: NetworkGeometry, seed: int) -> ChannelRealization:
    """Draw one Rayleigh realization for the given geometry.

    Identical (geometry, seed) pairs reproduce bit-identical realizations,
    equal to row i of `sample_trial_gains` when seed is seeds[i]. One draw
    goes through numpy's own generator: the array kernel's fixed cost per
    call is far above one stream's.
    """
    key = np.random.SeedSequence(int(_seed_array([seed])[0]))
    u = np.random.Generator(np.random.Philox(key)).random((1, geometry.num_users))
    gains = _gains_from_uniforms(geometry, u)[0]
    return ChannelRealization(tuple(gains.tolist()), geometry.eaves_avg_gain())


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Independent 64-bit sub-seeds for per-trial streams, derived from one root.

    The mapping is deterministic in (seed, trials prefix): extending the batch
    keeps earlier sub-seeds unchanged, so reductions in trial-index order are
    stable however the trials are scheduled. The sub-seeds are
    `SeedSequence(seed).generate_state(trials, uint64)` bit for bit, hashed
    from the root's pool, cycled to two words a trial, as whole arrays.
    """
    _require_integer("trials", trials)
    pool = np.random.SeedSequence(int(seed)).pool
    size = 2 * int(trials)
    if size < 0:
        raise ValueError("trials must be nonnegative")
    words = np.tile(pool, -(-size // pool.size))[:size]
    return _generate_state(words)
