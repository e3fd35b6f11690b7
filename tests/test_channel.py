import decimal
import hashlib
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secnoma import (
    ChannelRealization,
    NetworkGeometry,
    db_to_linear,
    dbm_to_mw,
    linear_to_db,
    mw_to_dbm,
    sample_realization,
    sample_trial_gains,
    trial_seeds,
)
from secnoma import _draw
from secnoma.channel import _LARGEST_DRAW


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)
    assert db_to_linear(23.0) == pytest.approx(10.0 ** 2.3, rel=1e-12)
    assert dbm_to_mw(-70.0) == pytest.approx(1e-7, rel=1e-12)
    assert mw_to_dbm(1.0) == 0.0
    for x in (0.013, 1.0, 7.3, 240.0):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


def test_db_conversions_vectorized():
    arr = np.array([0.0, 10.0, 20.0])
    assert np.allclose(db_to_linear(arr), [1.0, 10.0, 100.0])


@pytest.mark.parametrize("convert", [db_to_linear, linear_to_db, dbm_to_mw, mw_to_dbm])
def test_db_conversions_keep_the_input_shape(convert):
    # scalars of any kind come back as Python floats, arrays as arrays
    for scalar in (2.5, 3, np.float64(2.5), np.float32(2.5), np.int64(3), np.array(2.5)):
        assert type(convert(scalar)) is float
        assert convert(scalar) == convert(float(scalar))
    for arr in (np.array([2.5, 3.0]), [2.5, 3.0], np.array([[2.5], [3.0]])):
        out = convert(arr)
        assert isinstance(out, np.ndarray) and out.shape == np.shape(arr)
        assert out.ravel().tolist() == pytest.approx([convert(2.5), convert(3.0)], rel=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        NetworkGeometry((), 80.0, 4.0, 1e-7, 1e-7)
    with pytest.raises(ValueError):
        NetworkGeometry((50.0,), -1.0, 4.0, 1e-7, 1e-7)
    with pytest.raises(ValueError):
        NetworkGeometry((50.0,), 80.0, 0.0, 1e-7, 1e-7)
    for noise in ((0.0, 1e-7), (math.inf, 1e-7), (1e-7, math.inf)):
        with pytest.raises(ValueError, match="^noise powers must be positive and finite$"):
            NetworkGeometry((50.0,), 80.0, 4.0, *noise)
    # path gains d**-alpha the sampler cannot scale: overflowing, zero, not
    # finite over the noise floor, not finite times the largest unit-mean draw
    message = "^path gains d\\*\\*-alpha must be positive and finite over the noise floor$"
    for users, eave in [((1e-320,), 80.0), ((50.0, 1e100), 80.0), ((50.0,), 1e-76), ((1e-75,), 80.0)]:
        with pytest.raises(ValueError, match=message):
            NetworkGeometry(users, eave, 4.0, 1e-7, 1e-7)
    NetworkGeometry((1e-75,), 80.0, 4.0, 1.0, 1.0)


def test_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization((), 1.0)
    with pytest.raises(ValueError):
        ChannelRealization((3.0, 2.0), 1.0)  # not ascending
    with pytest.raises(ValueError):
        ChannelRealization((1.0, 2.0), 0.0)
    ChannelRealization((2.0, 2.0, 5.0), 1.0)  # ties are fine


def test_eaves_avg_gain_from_geometry():
    # 80 m at exponent 4 over a -70 dBm floor
    geom = NetworkGeometry((50.0, 50.0), 80.0, 4.0, 1e-7, 1e-10)
    assert geom.eaves_avg_gain() == pytest.approx(244.140625, rel=1e-12)


def test_sample_reproducible_and_sorted():
    geom = NetworkGeometry((30.0, 80.0, 50.0), 80.0, 4.0, 1e-7, 1e-7)
    a = sample_realization(geom, 123)
    b = sample_realization(geom, 123)
    assert a == b  # bit-exact
    assert list(a.user_gains) == sorted(a.user_gains)
    c = sample_realization(geom, 124)
    assert a != c


def test_distance_scaling_same_seed():
    # halving the distance scales the same fading draw by 2^alpha exactly
    near = NetworkGeometry((25.0,), 80.0, 4.0, 1e-7, 1e-7)
    far = NetworkGeometry((50.0,), 80.0, 4.0, 1e-7, 1e-7)
    for seed in range(5):
        g_near = sample_realization(near, seed).user_gains[0]
        g_far = sample_realization(far, seed).user_gains[0]
        assert g_near == pytest.approx(16.0 * g_far, rel=1e-12)


def test_gain_matrix_matches_per_trial_statistics():
    geom = NetworkGeometry((50.0,), 80.0, 4.0, 1e-7, 1e-7)
    scale = 50.0 ** -4 / 1e-7
    draws = sample_trial_gains(geom, trial_seeds(7, 1_000_000))[:, 0]
    assert draws.mean() == pytest.approx(scale, rel=0.01)


def test_gain_matrix_is_frozen():
    # the per-trial streams and gain transform, bit for bit; the same on any
    # CPU, since the transform takes no SIMD-dispatched loop
    geom = NetworkGeometry((30.0, 80.0, 50.0), 80.0, 4.0, 1e-7, 1e-7)
    digest = hashlib.sha256(sample_trial_gains(geom, trial_seeds(7, 1000)).tobytes()).hexdigest()
    assert digest == "49f5abd6211fb799a7c2d33bc78a14f6400dd27559247b715c2a848fb3a86a72"


# the uniforms k 2**-53 at u = 0, 2**-53, sqrt(1/2) (1 - u normalizes
# across sqrt(1/2) near 0.29), 1 - sqrt(1/2), and 1 - 2**-53
_EDGE_KS = [0, 1, round(math.sqrt(0.5) * 2**53), round((1 - math.sqrt(0.5)) * 2**53), 2**53 - 1]


@settings(max_examples=100, deadline=None)
@given(ks=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64))
@example(ks=[k + d for k in _EDGE_KS for d in (-1, 0, 1) if 0 <= k + d < 2**53])
@example(ks=list(range(7, 2**53, 2**53 // (2 * _draw._TRANSFORM_CHUNK + 1))))  # past two chunk boundaries
def test_exponential_transform_is_within_an_ulp_on_floats_and_arrays(ks):
    # -ln(1 - u) by +, -, *, / and frexp: its float and array forms agree
    # bit for bit, on any CPU, and stay within 1 ulp of 60 digits
    u = [k * 2.0**-53 for k in ks]
    floats = [_draw._exponential(x, math.frexp) for x in u]
    assert np.array(floats).tobytes() == _draw._exponentials(np.array(u)).tobytes()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for x, got in zip(u, floats):
            exact = -(1 - decimal.Decimal(x)).ln()
            assert abs(decimal.Decimal(got) - exact) <= decimal.Decimal(math.ulp(got))
    # the largest draw, which the geometry checks bound the path gains by
    assert _draw._exponential(1.0 - 2.0**-53, math.frexp) == _LARGEST_DRAW


def test_normalized_gain_is_unit_exponential():
    geom = NetworkGeometry((50.0, 20.0), 80.0, 4.0, 1e-7, 1e-7)
    draws = sample_trial_gains(geom, trial_seeds(11, 200_000))
    # undo sorting bias by normalizing the per-user columns jointly:
    # regenerate unsorted by using a single-user geometry instead
    single = NetworkGeometry((20.0,), 80.0, 4.0, 1e-7, 1e-7)
    x = sample_trial_gains(single, trial_seeds(11, 200_000))[:, 0] * 1e-7 * 20.0 ** 4
    stat = scipy.stats.kstest(x, "expon").statistic
    assert stat < 0.01
    assert draws.shape == (200_000, 2)


def test_trial_seeds_prefix_stable():
    assert np.array_equal(trial_seeds(42, 5), trial_seeds(42, 10)[:5])
    assert not np.array_equal(trial_seeds(42, 5), trial_seeds(43, 5))


# one to five pool words of entropy, at both ends of the 32- and 64-bit
# ranges, and eight: numpy mixes each word past the fourth into the pool, so
# that pass runs once at five words and four times at eight
ROOT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, 2**255 + 12345]


@pytest.mark.parametrize("seed", ROOT_SEEDS)
def test_trial_seeds_equal_numpy_generate_state(seed):
    # the root's pool, from its 32-bit words as Python ints
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, seed.bit_length() or 1, 32)]
    assert _draw._pool(words) == np.random.SeedSequence(seed).pool.tolist()
    # odd word counts and one past a draw block: the pool is cycled four
    # words at a time and sliced to two words a trial
    for trials in (0, 1, 2, 3, 5, _draw._DRAW_BLOCK + 3):
        got = trial_seeds(seed, trials)
        want = np.random.SeedSequence(seed).generate_state(trials, np.uint64)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_trial_seeds_reject_a_negative_root():
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        trial_seeds(-1, 3)
    # a float root was truncated, and a bool or a string taken as a root
    for seed in (3.7, True, "5"):
        with pytest.raises(ValueError, match=f"^seed must be an integer, not {seed!r}$"):
            trial_seeds(seed, 2)
    assert np.array_equal(trial_seeds(np.uint64(2**64 - 1), 3), trial_seeds(2**64 - 1, 3))


def test_trial_seeds_reject_a_fractional_or_bool_count():
    # a float count was truncated and True counted as one trial
    for trials in (2.7, 3.0, True):
        with pytest.raises(ValueError, match=f"^trials must be an integer, not {trials!r}$"):
            trial_seeds(11, trials)
    assert np.array_equal(trial_seeds(11, np.int64(3)), trial_seeds(11, 3))
    assert np.array_equal(trial_seeds(11, np.uint32(3)), trial_seeds(11, 3))


@settings(max_examples=50, deadline=None)
@given(
    dists=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=6),
    alpha=st.floats(2.0, 6.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_sampled_gains_sorted_positive(dists, alpha, seed):
    geom = NetworkGeometry(tuple(dists), 80.0, alpha, 1e-7, 1e-7)
    ch = sample_realization(geom, seed)
    assert all(g > 0 for g in ch.user_gains)
    assert list(ch.user_gains) == sorted(ch.user_gains)
    assert ch.num_users == len(dists)
