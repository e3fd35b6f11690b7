import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secnoma import (
    AggregateResult,
    SweepAxis,
    SweepSpec,
    read_results,
    run_sweep,
    write_results,
)
from secnoma.experiments import CSV_HEADER, SWEEP_KINDS


def rows_for(rows, scheme, metric):
    out = [r for r in rows if r.scheme == scheme and r.metric == metric]
    assert out == sorted(out, key=lambda r: r.x)
    return out


def test_spec_from_mapping_round_trip():
    mapping = {
        "kind": "power_vs_Q",
        "axis": "q",
        "axis_start": "0.1",
        "axis_stop": "0.4",
        "axis_steps": "4",
        "eps": "0.1",
        "gamma_e_db": "20",
        "k": "2",
    }
    spec = SweepSpec.from_mapping(mapping)
    assert spec == SweepSpec(
        "power_vs_Q",
        SweepAxis("q", 0.1, 0.4, 4),
        {"eps": 0.1, "gamma_e_db": 20.0, "k": 2},
        trials=1,
        seed=0,
    )
    assert isinstance(spec.fixed["k"], int)
    assert list(spec.axis.values()) == pytest.approx([0.1, 0.2, 0.3, 0.4])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# tiny magnitudes; a few subnormal ulps apart, the step underflows to zero
# and linspace scales the fraction i/div instead
_TINY = st.one_of(
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-64, 64).map(lambda ulps: ulps * 5e-324),
)
_ENDPOINTS = st.one_of(
    st.tuples(_FINITE, _FINITE),
    st.tuples(_TINY, _TINY),
    _FINITE.map(lambda x: (x, x)),
    st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 0.0)),  # descending
)


@settings(max_examples=500, deadline=None)
@given(endpoints=_ENDPOINTS, steps=st.integers(1, 300))
@example(endpoints=(-0.0, 1.0), steps=1)  # one step still adds 0.0 * delta
@example(endpoints=(0.0, 2e-323), steps=7)
@example(endpoints=(2, 6), steps=5)  # integer endpoints still give floats
def test_axis_values_are_linspace_bit_for_bit(endpoints, steps):
    start, stop = endpoints
    values = SweepAxis("q", start, stop, steps).values()
    assert all(type(v) is float for v in values)
    with np.errstate(over="ignore", invalid="ignore"):  # a delta may overflow to inf
        expected = np.linspace(start, stop, steps)
    assert np.array(values).tobytes() == expected.tobytes()


# each kind's axis and the fixed keys it reads, pinned through its messages
_KIND_KEYS = {
    "power_vs_Q": ("q", "eps, gain_base_db, gain_slope_db, gamma_e_db, k"),
    "rate_vs_P": ("p_dbm", "eps, gain_base_db, gain_slope_db, gamma_e_db, k, tol"),
    "beta_vs_eps": ("eps", "gain_base_db, gain_slope_db, gamma_e_db, k, p_dbm"),
    "avg_rate_vs_eps": ("eps", "alpha, d_eave, d_user, eaves_noise_dbm, k, noise_dbm, p_dbm, tol"),
    "gain_vs_K": ("k", "alpha, d_eave, d_user, eaves_noise_dbm, eps, noise_dbm, p_dbm, tol"),
}


def test_kind_key_table_covers_every_kind():
    assert tuple(_KIND_KEYS) == SWEEP_KINDS


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_kind_rejects_a_wrong_axis(kind):
    axis = _KIND_KEYS[kind][0]
    with pytest.raises(ValueError) as err:
        SweepSpec(kind, SweepAxis("wrong", 0.1, 0.4, 4))
    assert str(err.value) == f"sweep kind {kind!r} varies {axis!r}, not 'wrong'"


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_kind_lists_its_allowed_keys(kind):
    axis, allowed = _KIND_KEYS[kind]
    for key in allowed.split(", "):
        SweepSpec(kind, SweepAxis(axis, 0.1, 0.4, 4), {key: 1.0})
    with pytest.raises(ValueError) as err:
        SweepSpec(kind, SweepAxis(axis, 0.1, 0.4, 4), {"bogus": 1.0})
    assert str(err.value) == f"unknown key 'bogus' (allowed: {allowed})"


@pytest.mark.parametrize(
    "spec",
    [
        ("power_vs_Q", SweepAxis("q", 0.1, 0.2, 2), {"k": 2.5, "eps": 0.1, "gamma_e_db": 20}),
        ("avg_rate_vs_eps", SweepAxis("eps", 0.1, 0.3, 3), {"k": 3.9, "d_user": 50, "d_eave": 80, "p_dbm": 20}),
        ("rate_vs_P", SweepAxis("p_dbm", 0.0, 10.0, 2), {"k": 0, "eps": 0.1, "gamma_e_db": 20}),
        ("beta_vs_eps", SweepAxis("eps", 0.1, 0.3, 2), {"k": math.inf, "gamma_e_db": 20, "p_dbm": 20.0}),
    ],
    ids=["fractional", "fractional fading", "zero", "infinite"],
)
def test_fixed_user_count_must_be_whole(spec):
    # a fractional count used to be truncated silently when the spec ran
    kind, axis, fixed = spec
    with pytest.raises(ValueError) as err:
        SweepSpec(kind, axis, fixed)
    assert str(err.value) == f"fixed key 'k' must be a positive whole number, not {fixed['k']!r}"
    assert SweepSpec(kind, axis, {**fixed, "k": 3.0}).fixed["k"] == 3


def test_spec_validation():
    with pytest.raises(ValueError, match="missing required key"):
        SweepSpec.from_mapping({"kind": "power_vs_Q", "axis": "q"})
    with pytest.raises(ValueError, match="unknown sweep kind"):
        SweepSpec("bogus", SweepAxis("q", 0.1, 0.4, 4))
    with pytest.raises(ValueError, match="varies"):
        SweepSpec("power_vs_Q", SweepAxis("eps", 0.1, 0.4, 4))
    with pytest.raises(ValueError):
        SweepSpec("power_vs_Q", SweepAxis("q", 0.1, 0.4, 0))
    with pytest.raises(ValueError):
        SweepSpec("power_vs_Q", SweepAxis("q", 0.1, 0.4, 4), trials=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SweepSpec("power_vs_Q", SweepAxis("q", 0.1, 0.4, 4), seed=-1)
    # a non-integer count or seed would run truncated but print as given
    for key, value in (("trials", 20.7), ("trials", 20.0), ("trials", True), ("seed", 1.5), ("seed", True)):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, not {value!r}$"):
            SweepSpec("avg_rate_vs_eps", SweepAxis("eps", 0.1, 0.4, 4), {}, **{key: value})
    assert SweepSpec("power_vs_Q", SweepAxis("q", 0.1, 0.4, 4), trials=np.int64(3), seed=np.uint64(2)).trials == 3
    # a fractional step count would fail late in range(), and True would run one point
    for steps in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"^steps must be an integer, not {steps!r}$"):
            SweepAxis("q", 0.1, 0.3, steps)
    assert SweepAxis("q", 0.1, 0.3, np.int64(3)).values() == SweepAxis("q", 0.1, 0.3, 3).values()
    with pytest.raises(ValueError):
        AggregateResult(1.0, "noma", "m", 0.0, -1.0, 1.0, 1, 0)
    with pytest.raises(ValueError):
        AggregateResult(1.0, "noma", "m", 0.0, 0.0, 1.5, 1, 0)


def test_power_sweep_trends():
    spec = SweepSpec(
        "power_vs_Q",
        SweepAxis("q", 0.05, 0.6, 12),
        {"eps": 0.1, "gamma_e_db": 20.0, "k": 2},
    )
    rows = run_sweep(spec)
    noma = rows_for(rows, "noma", "total_power")
    avg = rows_for(rows, "tdma_eq", "avg_power")
    peak = rows_for(rows, "tdma_eq", "peak_power")
    assert len(noma) == len(avg) == len(peak) == 12

    # feasibility is a prefix of the floor axis and required power grows with it
    flags = [r.feasible_frac == 1.0 for r in noma]
    assert True in flags and False in flags
    assert flags == sorted(flags, reverse=True)
    feas = [r.value for r in noma if r.feasible_frac == 1.0]
    assert all(b > a for a, b in zip(feas, feas[1:]))
    assert all(math.isnan(r.value) for r in noma if r.feasible_frac == 0.0)

    # orthogonal slots give out earlier and cost more while they last
    tdma_flags = [r.feasible_frac == 1.0 for r in avg]
    assert sum(tdma_flags) < sum(flags)
    for n, a, p in zip(noma, avg, peak):
        if n.feasible_frac == 1.0 and a.feasible_frac == 1.0:
            assert n.value < a.value <= p.value


def test_rate_sweep_trends():
    spec = SweepSpec(
        "rate_vs_P",
        SweepAxis("p_dbm", 0.0, 30.0, 7),
        {"eps": 0.1, "gamma_e_db": 20.0, "k": 2},
    )
    rows = run_sweep(spec)
    by_scheme = {s: rows_for(rows, s, "min_rate") for s in ("noma", "tdma_opt", "tdma_eq")}
    for series in by_scheme.values():
        vals = [r.value for r in series]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for n, o, e in zip(by_scheme["noma"], by_scheme["tdma_opt"], by_scheme["tdma_eq"]):
        assert n.value > o.value > e.value


def test_split_sweep_decreasing():
    spec = SweepSpec(
        "beta_vs_eps",
        SweepAxis("eps", 0.1, 0.5, 9),
        {"gamma_e_db": 20.0, "k": 2, "p_dbm": 20.0},
    )
    rows = run_sweep(spec)
    betas = [r.value for r in rows_for(rows, "noma", "beta1")]
    assert len(betas) == 9
    assert all(0.5 < b < 1.0 for b in betas)
    # laxer outage bounds relax the stringency, shifting power off the weak user
    assert all(b < a for a, b in zip(betas, betas[1:]))


def test_split_sweep_marks_shutout_points():
    # strong enough eavesdropper: the tightest bound admits no positive rate
    spec = SweepSpec(
        "beta_vs_eps",
        SweepAxis("eps", 0.1, 0.5, 5),
        {"gamma_e_db": 21.46, "k": 2, "p_dbm": 20.0},
    )
    rows = run_sweep(spec)
    assert math.isnan(rows[0].value) and rows[0].feasible_frac == 0.0
    for r in rows[1:]:
        assert not math.isnan(r.value) and r.feasible_frac == 1.0
    vals = [r.value for r in rows[1:]]
    assert all(b < a for a, b in zip(vals, vals[1:]))


FADING_FIXED = {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "k": 2}


def test_fading_sweep_orderings():
    spec = SweepSpec(
        "avg_rate_vs_eps", SweepAxis("eps", 0.1, 0.3, 3), dict(FADING_FIXED), trials=50, seed=3
    )
    rows = run_sweep(spec)
    by_scheme = {s: rows_for(rows, s, "avg_min_rate") for s in ("noma", "tdma_opt", "tdma_eq")}
    for series in by_scheme.values():
        vals = [r.value for r in series]
        # realizations are shared across the axis, so the mean inherits the
        # per-trial monotonicity in the outage bound
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for n, o, e in zip(by_scheme["noma"], by_scheme["tdma_opt"], by_scheme["tdma_eq"]):
        assert n.value > o.value > e.value
        assert n.stderr > 0 and n.feasible_frac > 0.6
        assert n.trials == 50 and n.seed == 3


def test_fading_sweep_zero_fills_infeasible_trials():
    fixed = dict(FADING_FIXED, d_user=80.0)
    spec = SweepSpec(
        "avg_rate_vs_eps", SweepAxis("eps", 0.1, 0.1, 1), fixed, trials=400, seed=5
    )
    rows = run_sweep(spec)
    noma = rows_for(rows, "noma", "avg_min_rate")[0]
    assert 0.05 < noma.feasible_frac < 0.3
    # zero-filled average is far below any feasible-conditional rate
    opt = rows_for(rows, "tdma_opt", "avg_min_rate")[0]
    eq = rows_for(rows, "tdma_eq", "avg_min_rate")[0]
    assert noma.value > opt.value > eq.value > 0.0


def test_gain_sweep_ratio_and_nesting():
    spec = SweepSpec(
        "gain_vs_K",
        SweepAxis("k", 2, 4, 3),
        {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "eps": 0.2},
        trials=300,
        seed=9,
    )
    rows = run_sweep(spec)
    ratios = rows_for(rows, "noma", "rate_ratio")
    assert [r.x for r in ratios] == [2.0, 3.0, 4.0]
    for r in ratios:
        assert r.value > 1.0 and r.stderr >= 0.0
    # per-trial draws nest across K: adding a user can only hurt feasibility
    fracs = [r.feasible_frac for r in rows_for(rows, "noma", "avg_min_rate")]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_gain_sweep_conclusion_is_seed_independent():
    for seed in (1, 2, 3, 4, 5):
        spec = SweepSpec(
            "gain_vs_K",
            SweepAxis("k", 2, 3, 2),
            {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "eps": 0.2},
            trials=300,
            seed=seed,
        )
        for r in rows_for(run_sweep(spec), "noma", "rate_ratio"):
            assert r.value > 1.0


def test_gain_sweep_equal_statistics_still_wins():
    spec = SweepSpec(
        "gain_vs_K",
        SweepAxis("k", 2, 4, 3),
        {"d_user": 80.0, "d_eave": 100.0, "p_dbm": 20.0, "eps": 0.1},
        trials=400,
        seed=5,
    )
    rows = run_sweep(spec)
    for r in rows_for(rows, "noma", "rate_ratio"):
        if r.feasible_frac > 0.0:
            assert r.value > 1.0


def test_gain_sweep_point_without_a_feasible_trial():
    # users and eavesdropper at equal statistics: no trial of 200 admits a
    # positive common rate for four users, so the ratio has no mean to divide
    spec = SweepSpec(
        "gain_vs_K",
        SweepAxis("k", 2, 4, 3),
        {"d_user": 80.0, "d_eave": 80.0, "p_dbm": 20.0, "eps": 0.1},
        trials=200,
        seed=11,
    )
    rows = run_sweep(spec)
    ratios = rows_for(rows, "noma", "rate_ratio")
    assert [r.feasible_frac > 0.0 for r in ratios] == [True, True, False]
    assert all(math.isfinite(r.value) for r in ratios[:2])
    empty = ratios[2]
    assert math.isnan(empty.value) and empty.stderr == 0.0 and empty.feasible_frac == 0.0
    for scheme in ("noma", "tdma_opt", "tdma_eq"):
        last = rows_for(rows, scheme, "avg_min_rate")[2]
        assert (last.value, last.stderr, last.feasible_frac) == (0.0, 0.0, 0.0)


def test_gain_sweep_rejects_fractional_axis():
    spec = SweepSpec(
        "gain_vs_K",
        SweepAxis("k", 2, 3, 3),
        {"d_user": 50.0, "d_eave": 100.0, "p_dbm": 20.0, "eps": 0.2},
    )
    with pytest.raises(ValueError, match="integer"):
        run_sweep(spec)


def test_write_is_byte_identical_across_reruns(tmp_path):
    mapping = {
        "kind": "avg_rate_vs_eps",
        "axis": "eps",
        "axis_start": "0.1",
        "axis_stop": "0.3",
        "axis_steps": "3",
        "trials": "50",
        "seed": "3",
        "d_user": "50",
        "d_eave": "100",
        "p_dbm": "20",
        "k": "2",
    }
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_results(run_sweep(SweepSpec.from_mapping(dict(mapping))), path)
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.startswith((",".join(CSV_HEADER) + "\n").encode())


_ROWS = [
    AggregateResult(0.1, "noma", "total_power", 0.25, 0.0, 1.0, 1, 0),
    AggregateResult(0.2, "noma", "total_power", 0.5, 0.0, 1.0, 1, 0),
]


def _csv_bytes(tmp_path, rows):
    # the bytes of a write to a file that did not exist
    path = tmp_path / "fresh.csv"
    path.unlink(missing_ok=True)
    write_results(rows, path)
    return path.read_bytes()


def test_rewrite_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"junk," * 10_000)
    write_results(_ROWS, path)
    assert path.read_bytes() == _csv_bytes(tmp_path, _ROWS)
    # and again over a file the new rows only partly cover
    write_results(_ROWS[:1], path)
    assert path.read_bytes() == _csv_bytes(tmp_path, _ROWS[:1])


def test_rewrite_stopped_by_an_error_keeps_no_old_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"junk," * 10_000)
    bad = AggregateResult(0.3, "noma", "total_power", "not a number", 0.0, 1.0, 1, 0)
    with pytest.raises(ValueError):
        write_results([*_ROWS, bad], path)
    assert path.read_bytes() == _csv_bytes(tmp_path, _ROWS)


def test_missing_file_is_created(tmp_path):
    path = tmp_path / "new.csv"
    write_results(_ROWS, path)
    assert read_results(path) == _ROWS


def test_rewrite_through_a_symlink_lands_in_the_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"junk\n" * 1000)
    link.symlink_to(target)
    write_results(_ROWS, link)
    assert link.is_symlink()
    assert target.read_bytes() == _csv_bytes(tmp_path, _ROWS)


def test_rewrite_keeps_hard_links_and_mode(tmp_path):
    path, other = tmp_path / "rows.csv", tmp_path / "other.csv"
    path.write_bytes(b"junk\n" * 1000)
    path.chmod(0o640)
    other.hardlink_to(path)
    write_results(_ROWS, path)
    assert other.read_bytes() == _csv_bytes(tmp_path, _ROWS)
    assert path.stat().st_mode & 0o777 == 0o640
    assert path.stat().st_ino == other.stat().st_ino


def test_read_round_trips_including_nan(tmp_path):
    rows = [
        AggregateResult(0.1, "noma", "total_power", 0.25, 0.0, 1.0, 1, 0),
        AggregateResult(0.2, "noma", "total_power", math.nan, 0.0, 0.0, 1, 0),
    ]
    path = tmp_path / "rows.csv"
    write_results(rows, path)
    back = read_results(path)
    assert back[0] == rows[0]
    assert math.isnan(back[1].value)
    assert (back[1].x, back[1].feasible_frac) == (0.2, 0.0)


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results(path)
