"""The fading draw: numpy's SeedSequence and Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), the package's only
copy of either, so numpy's random module never loads. Every trial is keyed
and drawn at once in whole-array arithmetic: row i of `_trial_uniforms` is
`Generator(Philox(SeedSequence(seeds[i]))).random(K)` bit for bit. Philox
is counter-based, so distinct keys give independent, reproducible streams.
One row (`sample_realization`) is drawn on Python ints and floats by int
twins of the state hash and the rounds, so it never loads numpy; the
exponential transform is one body for floats and arrays.
"""
import math
import numbers

# channel's lazy numpy binding: numpy loads when array code first runs
from .channel import np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_RANGE = "fading seeds must be integers in [0, 2**64)"
_POOL_HASH = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # SeedSequence INIT_B, MULT_B
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _is_seed(seed):
    return isinstance(seed, numbers.Integral) and 0 <= seed < 2**64


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
    if not all(map(_is_seed, flat)):
        raise ValueError(_SEED_RANGE)
    return np.array(flat, dtype=np.uint64)


def _hasher(init, mult):
    """SeedSequence's hash of successive 32-bit words, Python ints or uint32
    arrays: each word xor the hash constant, times its next step, xor its
    own high half. The constant steps once per hash, whatever the data; the
    masks keep ints to 32 bits and change nothing on uint32 arrays."""
    const = init

    def hashmix(word):
        nonlocal const
        value = word ^ const
        const = const * mult & _MASK32
        value *= const
        value &= _MASK32
        value ^= value >> 16
        return value

    return hashmix


def _pool(entropy):
    """SeedSequence's pool of its 32-bit entropy words, least significant
    first: Python ints or uint32 arrays of one shape."""
    # a missing word hashes as 0, in the entropy's own type
    words = [*entropy, *[0 * entropy[0]] * (4 - len(entropy))]
    hashmix = _hasher(*_POOL_HASH)
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


def _row_uniforms(seed, num):
    """`_trial_uniforms` of the one seed, an int in [0, 2**64), as a list of
    Python floats: the key is the state hash of the seed's pool, and each
    128-bit Philox product is one int multiply."""
    state = list(map(_hasher(*_STATE_HASH), _pool([seed & _MASK32, seed >> 32])))
    key = (state[0] | state[1] << 32, state[2] | state[3] << 32)
    words = []
    for block in range(1, -(-num // 4) + 1):
        (c0, c1, c2, c3), (k0, k1) = (block, 0, 0, 0), key
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
            p0, p2 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
            c0, c1, c2, c3 = (p2 >> 64) ^ c1 ^ k0, p2 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        words += (c0, c1, c2, c3)
    return [(word >> 11) * 2.0**-53 for word in words[:num]]


# fdlibm's e_log.c: ln 2 split so that k * _LN2_HI is exact for |k| < 2**11,
# and the minimax coefficients of its log kernel
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG = (
    6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01, 2.222219843214978396e-01,
    1.818357216161805012e-01, 1.531383769920937332e-01, 1.479819860511658591e-01,
)
_SQRT_HALF = math.sqrt(0.5)


def _exponential(u, frexp):
    """The unit-mean exponential draw -ln(1 - u) of uniforms u in [0, 1), on
    Python floats with math.frexp or on arrays with np.frexp, bit for bit
    alike: fdlibm's log of x = 1 - u, which is exact for the sampler's u =
    k 2**-53. It takes only +, -, *, / and frexp, each exact or correctly
    rounded, so it rounds the same on any IEEE machine (numpy's log1p is
    SIMD-dispatched), and lies within 1 ulp of the exact value."""
    # x = 2**k (1 + f) with 1 + f in [sqrt(1/2), sqrt(2)): f is exact.
    # Each step updates a temporary of its own in place, which rebinds a
    # float and spares an array its allocation.
    m, k = frexp(1.0 - u)
    low = m < _SQRT_HALF
    f = m * low
    f += m
    f -= 1.0
    k = k - low
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    # r = z (Lg1 + w (Lg3 + w (Lg5 + w Lg7))) + w (Lg2 + w (Lg4 + w Lg6))
    r = w * _LG[6]
    r += _LG[4]
    r *= w
    r += _LG[2]
    r *= w
    r += _LG[0]
    r *= z
    t = w * _LG[5]
    t += _LG[3]
    t *= w
    t += _LG[1]
    t *= w
    r += t
    # ln x = k ln2_hi - ((hfsq - (s (hfsq + r) + k ln2_lo)) - f), negated
    hfsq = f * f
    hfsq *= 0.5
    r += hfsq
    r *= s
    r += k * _LN2_LO
    hfsq -= r
    hfsq -= f
    hfsq -= k * _LN2_HI
    return hfsq


# The transform's temporaries, about a dozen arrays of its input's size, are
# bounded by taking it this many elements at a time.
_TRANSFORM_CHUNK = 4096


def _exponentials(u):
    """`_exponential` of an array of uniforms, as a new array of its shape,
    _TRANSFORM_CHUNK elements at a time."""
    flat = u.reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _TRANSFORM_CHUNK):
        out[start : start + _TRANSFORM_CHUNK] = _exponential(flat[start : start + _TRANSFORM_CHUNK], np.frexp)
    return out.reshape(u.shape)


def _path_gains(geometry):
    """Each user's path gain d**-alpha, as Python floats."""
    alpha = float(geometry.path_loss_exponent)
    return [float(d) ** -alpha for d in geometry.distances_user]


def _gains_from_draws(geometry, draws):
    """Sorted gains, as a new (N, K) array, from the first K columns of an
    (N, >= K) block of unit-mean exponential draws: each times its user's
    path gain, over the noise floor."""
    gains = draws[:, : geometry.num_users] * np.array(_path_gains(geometry))
    gains /= geometry.noise_user_mw
    gains.sort(axis=1)
    return gains


def _realization_gains(geometry, seed):
    """Row 0 of `_gains_from_draws(geometry, _exponentials(_trial_uniforms(
    [seed], K)))`, bit for bit, as a sorted tuple of Python floats drawn
    without numpy."""
    if not _is_seed(seed):
        raise ValueError(_SEED_RANGE)
    noise = float(geometry.noise_user_mw)
    draws = (_exponential(u, math.frexp) for u in _row_uniforms(int(seed), geometry.num_users))
    return tuple(sorted(e * g / noise for e, g in zip(draws, _path_gains(geometry))))
