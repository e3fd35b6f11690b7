"""The fading draw: numpy's SeedSequence and Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), the package's only
copy of either, so numpy's random module never loads. Every trial is keyed
and drawn at once in whole-array arithmetic: row i of `_trial_uniforms` is
`Generator(Philox(SeedSequence(seeds[i]))).random(K)` bit for bit. Philox
is counter-based, so distinct keys give independent, reproducible streams.
"""
import numbers

import numpy as np

_MASK32 = 0xFFFFFFFF
_SEED_RANGE = "fading seeds must be integers in [0, 2**64)"
_POOL_HASH = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # SeedSequence INIT_B, MULT_B
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _seed_array(seeds):
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


def _pool(entropy):
    """SeedSequence's pool of its 32-bit entropy words, least significant
    first: Python ints or uint32 arrays of one shape. The masks keep ints to
    32 bits; on uint32 arrays they change nothing."""
    # a missing word hashes as 0, in the entropy's own type
    const, words = _POOL_HASH[0], [*entropy, *[0 * entropy[0]] * (4 - len(entropy))]

    def hashmix(word):
        # the hash constant steps once per hash, whatever the data
        nonlocal const
        value = word ^ const
        const = const * _POOL_HASH[1] & _MASK32
        value *= const
        value &= _MASK32
        value ^= value >> 16
        return value

    pool = [hashmix(word) for word in words[:4]]
    # each pool word then mixes into every other; each later word into all four
    for src in range(len(words)):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src] if src < 4 else words[src]))
    return pool


def _mix(x, y):
    result = x * _MIX_L
    result -= y * _MIX_R
    result &= _MASK32
    result ^= result >> 16
    return result


def _generate_state(words):
    """SeedSequence.generate_state(n, uint64) from uint32 `words`, the pool
    cycled to 2n words along the last axis, hashed in place: each word xor
    its hash constant, times the next constant, xor its own high half."""
    const = np.full(words.shape[-1] + 1, _STATE_HASH[1], dtype=np.uint32)
    const[0] = _STATE_HASH[0]
    np.multiply.accumulate(const, out=const)
    words ^= const[:-1]
    words *= const[1:]
    # one row of words (`trial_seeds`) shifts into its spent constants, so
    # its peak stays at two buffers of its size
    words ^= np.right_shift(words, 16, out=const[:-1] if words.ndim == 1 else None)
    # pairs of words assembled little-endian, as numpy does on any platform
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _trial_seeds(seed, trials):
    """`SeedSequence(seed).generate_state(trials, uint64)` for Python ints
    seed, trials >= 0: the pool of the seed's words, cycled to 2 * trials."""
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length() or 1, 32)]
    pool = np.array(_pool(words), dtype=np.uint32)
    return _generate_state(np.tile(pool, -(-trials // 2))[: 2 * trials])


def _philox_keys(seeds):
    """(2, N, 1) Philox keys: `SeedSequence(seeds[i]).generate_state(2, uint64)`."""
    # a seed below 2**32 is one entropy word, but a missing word hashes as 0,
    # so every seed can be its (low, high) pair; the cast keeps the low bits
    pool = _pool([seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)])
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


def _gains_from_uniforms(geometry, u):
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
