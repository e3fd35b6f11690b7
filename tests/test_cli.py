import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secnoma.cli
from secnoma import (
    ChannelRealization,
    NetworkGeometry,
    PowerAllocation,
    SweepSpec,
    dbm_to_mw,
    secrecy_outage_closed_form,
)
from secnoma._lazy import lazy_module
from secnoma.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE

from oracles import near_numpy_gains

# dB encodings of the (5, 10) worked instance with unit eavesdropper gain
GAINS_DB = "6.989700043360187,10"
EPS = "0.36787944117144233"

_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "secnoma", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_min_power_worked_instance_json():
    rc, out, _ = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", EPS, "--json"
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["gains"] == pytest.approx([5.0, 10.0], rel=1e-12)
    assert payload["powers_mw"] == pytest.approx([117.0 / 152.0, 0.125], rel=1e-9)
    assert payload["total_power_mw"] == pytest.approx(17.0 / 19.0, rel=1e-9)
    assert payload["codeword_rates"][0] == pytest.approx(1.7520724865564146, rel=1e-9)
    assert payload["confidential_rate"] == 1.0
    for out_k in payload["outage"]:
        assert out_k == pytest.approx(float(EPS), abs=1e-9)


def test_min_power_json_revalidates_through_library():
    rc, out, _ = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", EPS, "--json"
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    channel = ChannelRealization(tuple(payload["gains"]), payload["eaves_avg_gain"])
    alloc = PowerAllocation(tuple(payload["powers_mw"]))
    for k in range(1, channel.num_users + 1):
        outage = secrecy_outage_closed_form(channel, alloc, payload["confidential_rate"], k)
        assert outage <= float(EPS) + 1e-9


def test_min_power_plain_text():
    rc, out, _ = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", EPS
    )
    assert rc == EXIT_OK
    assert "feasible: yes" in out
    assert "total_power_mw: 0.8947368421" in out


def test_min_power_infeasible_exit_code():
    rc, out, _ = run_cli(
        "min-power", "--gains-db", "3", "--eaves-db", "0", "--q", "1", "--eps", "0.3679", "--json"
    )
    assert rc == EXIT_INFEASIBLE
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["reason"] == "user_condition_K"
    assert payload["failing_users"] == [1]


def test_usage_errors_exit_one():
    rc, _, err = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--eps", EPS
    )  # --q missing
    assert rc == EXIT_USAGE and "error" in err
    rc, _, err = run_cli("min-power", "--gains-db", GAINS_DB, "--q", "1", "--eps", EPS)
    assert rc == EXIT_USAGE and "--eaves-db" in err
    rc, _, err = run_cli("min-power", "--q", "1", "--eps", EPS)
    assert rc == EXIT_USAGE  # neither gains nor geometry given
    rc, _, _ = run_cli("no-such-command")
    assert rc == EXIT_USAGE
    rc, _, _ = run_cli()
    assert rc == EXIT_USAGE


def test_domain_errors_exit_one():
    rc, _, err = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "-1", "--eps", EPS
    )
    assert rc == EXIT_USAGE and "error:" in err
    rc, _, err = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", "1.5"
    )
    assert rc == EXIT_USAGE and "error:" in err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_range_is_one_line_error(seed):
    rc, out, err = run_cli(
        "min-power", "--num-users", "2", "--d-user", "50", "--d-eave", "100",
        "--q", "1", "--eps", "0.3", "--seed", seed,
    )
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: fading seeds must be integers in [0, 2**64)\n"


@pytest.mark.parametrize(
    "args",
    [
        ("min-power", "--gains-db", "7,10", "--eaves-db", "0", "--q", "2000", "--eps", "0.3"),
        ("max-min-rate", "--gains-db", "7,10", "--eaves-db", "0", "--p-dbm", "4000", "--eps", "0.3"),
        ("max-min-rate", "--gains-db", "2000,2010", "--eaves-db", "0", "--p-dbm", "1100", "--eps", "0.3"),
    ],
)
def test_overflowing_input_is_one_line_error(args):
    rc, out, err = run_cli(*args)
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: an input is too large: the arithmetic overflows\n"


@pytest.mark.parametrize(
    "gains_db", ["1100,1110", "1600,1610"], ids=["1100,1110", "1600,1610"]
)
def test_overflowing_closed_form_is_one_line_error(gains_db):
    # compare-oma solves two users in closed form, whose discriminant
    # overflows at these SNRs; max-min-rate bisects the same channel to a rate
    channel = ("--gains-db", gains_db, "--eaves-db", "0", "--p-dbm", "0", "--eps", "0.3")
    rc, out, err = run_cli("compare-oma", *channel)
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: an input is too large: the arithmetic overflows\n"
    rc, out, _ = run_cli("max-min-rate", *channel)
    assert rc == EXIT_OK and "feasible: yes" in out


def test_closed_form_answers_at_tiny_gains():
    # equal gains near 1e-162 at SNR 1: the closed form is taken in SNRs, so
    # it gives the rate of every scale, as the bisection does
    channel = ("--gains-db=-1620,-1620", "--eaves-db=-1620", "--p-dbm", "1620", "--eps", "0.5")
    rc, out, err = run_cli("compare-oma", *channel)
    assert rc == EXIT_OK and err == ""
    assert "rate_noma: 0.1201463059\n" in out and "ratio: 1\n" in out
    rc, out, _ = run_cli("max-min-rate", *channel)
    assert rc == EXIT_OK and "max_min_rate: 0.1201463059\n" in out


def test_overflowing_sweep_is_one_line_error(tmp_path):
    # gains near 1e4 times a budget near 1e307: the bisection's bracket overflows
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "kind = avg_rate_vs_eps\naxis = eps\naxis_start = 0.1\naxis_stop = 0.3\naxis_steps = 2\n"
        "k = 2\nd_user = 5\nd_eave = 80\np_dbm = 3070\ntrials = 20\nseed = 1\n"
    )
    rc, out, err = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: an input is too large: the arithmetic overflows\n"


_FADING_SPEC = "axis_steps = 2\nd_eave = 80\np_dbm = 20\ntrials = 20\nseed = 1\n"


@pytest.mark.parametrize(
    "args, config",
    [
        (("max-min-rate", "--num-users", "2", "--d-user=1e-320", "--d-eave=80", "--p-dbm", "20", "--eps", "0.3"), None),
        (("sweep",), "kind = gain_vs_K\naxis = k\naxis_start = 2\naxis_stop = 3\neps = 0.1\nd_user = 1e-300\n"),
        (("sweep",), "kind = avg_rate_vs_eps\naxis = eps\naxis_start = 0.1\naxis_stop = 0.3\nd_user = 1e-80\n"),
    ],
    ids=["max-min-rate", "gain_vs_K", "avg_rate_vs_eps"],
)
def test_overflowing_path_gain_is_one_line_error(tmp_path, args, config):
    # d**-alpha overflows before any draw, so numpy never warns
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config + _FADING_SPEC)
        args += ("--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path / "x.csv"))
    rc, out, err = run_cli(*args)
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: path gains d**-alpha must be positive and finite over the noise floor\n"


@pytest.mark.parametrize(
    "args, config",
    [
        (("max-min-rate", "--num-users", "2", "--d-user=50", "--d-eave=80", "--noise-dbm", "inf",
          "--p-dbm", "20", "--eps", "0.3"), None),
        (("sweep",), "kind = avg_rate_vs_eps\naxis = eps\naxis_start = 0.1\naxis_stop = 0.3\nd_user = 50\n"
                     "noise_dbm = inf\n"),
        (("sweep",), "kind = gain_vs_K\naxis = k\naxis_start = 2\naxis_stop = 3\neps = 0.1\nd_user = 50\n"
                     "eaves_noise_dbm = inf\n"),
    ],
    ids=["max-min-rate", "avg_rate_vs_eps", "gain_vs_K"],
)
def test_infinite_noise_is_one_line_error(tmp_path, args, config):
    # an infinite noise floor made every gain 0: the sweeps wrote a CSV of
    # zero rates and exited 0
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config + _FADING_SPEC)
        args += ("--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path / "x.csv"))
    rc, out, err = run_cli(*args)
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: noise powers must be positive and finite\n"
    assert not (tmp_path / "x.csv").exists()


def test_compare_without_tdma_rate_is_one_line_error():
    # at -173 dBm every TDMA slot rate rounds to 0, so the ratio has no value
    rc, out, err = run_cli(
        "compare-oma", "--gains-db", "0.8,10.6", "--eaves-db", "-15", "--p-dbm", "-173", "--eps", "0.3678794"
    )
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: optimal-time TDMA has no positive rate at this budget: the ratio is undefined\n"


def test_sweep_past_the_stringency_overflow(tmp_path):
    # the stringency times budgets near 1e302 mW overflows while the gains'
    # products do not: every slot rate is 0, not a math domain error
    spec = (_SPECS_DIR / "rate_vs_budget.spec").read_text()
    spec = spec.replace("gamma_e_db = 20", "gamma_e_db = 100").replace("axis_stop = 40", "axis_stop = 3020")
    (tmp_path / "sweep.cfg").write_text(spec)
    rc, out, err = run_cli("sweep", "--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path / "x.csv"))
    assert rc == EXIT_OK and err == ""
    last = (tmp_path / "x.csv").read_text().splitlines()[-3:]
    assert [row.split(",")[:4] for row in last] == [
        ["3020", scheme, "min_rate", "0"] for scheme in ("noma", "tdma_opt", "tdma_eq")
    ]


def test_stalled_tolerance_is_one_line_error(tmp_path):
    # 1e-17 is below the float spacing near the rate: the bracket stops
    # shrinking, on the scalar path and on the sweep's row path
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "kind = avg_rate_vs_eps\naxis = eps\naxis_start = 0.1\naxis_stop = 0.3\naxis_steps = 2\n"
        "k = 2\nd_user = 50\nd_eave = 80\np_dbm = 20\ntrials = 20\nseed = 1\ntol = 1e-17\n"
    )
    for args in (
        ("max-min-rate", "--gains-db", "7,10", "--eaves-db", "0", "--p-dbm", "20", "--eps", "0.3", "--tol", "1e-17"),
        ("sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")),
    ):
        rc, out, err = run_cli(*args)
        assert rc == EXIT_USAGE and out == ""
        assert err == "error: tolerance finer than the float spacing of the rate: the bracket stopped shrinking\n"


# the values that reach the arithmetic's edges, put in any float option
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320]

# ordinary values are mostly valid, so that some calls reach a result
_EPS = st.floats(0.01, 0.99)
_CHANNEL_OPTIONS = st.one_of(
    st.fixed_dictionaries({
        "gains-db": st.lists(st.floats(10.0, 40.0), min_size=1, max_size=4),
        "eaves-db": st.floats(-20.0, 0.0),
    }),
    st.fixed_dictionaries(
        {"num-users": st.integers(1, 4), "d-user": st.floats(1.0, 200.0), "d-eave": st.floats(1.0, 200.0)},
        optional={
            "alpha": st.floats(2.0, 5.0),
            "noise-dbm": st.floats(-100.0, -40.0),
            "eaves-noise-dbm": st.floats(-100.0, -40.0),
            "seed": st.integers(-1, 2**64),
        },
    ),
)
_SCALAR_CALLS = st.one_of(
    st.tuples(st.just("min-power"), st.fixed_dictionaries({"q": st.floats(0.01, 3.0), "eps": _EPS})),
    st.tuples(
        st.just("max-min-rate"),
        st.fixed_dictionaries(
            {"p-dbm": st.floats(-200.0, 40.0), "eps": _EPS}, optional={"tol": st.floats(1e-12, 1e-3)}
        ),
    ),
    st.tuples(st.just("compare-oma"), st.fixed_dictionaries({"p-dbm": st.floats(-200.0, 40.0), "eps": _EPS})),
)


@st.composite
def _scalar_argv(draw):
    """A scalar subcommand with a complete channel, so no usage error, and
    up to three of its float options (a gain among them) at an edge value."""
    command, options = draw(_SCALAR_CALLS)
    options.update(draw(_CHANNEL_OPTIONS))
    floats = sorted(key for key, value in options.items() if isinstance(value, (float, list)))
    for key, edge in draw(st.dictionaries(st.sampled_from(floats), st.sampled_from(_EDGE_FLOATS), max_size=3)).items():
        options[key] = options[key] + [edge] if key == "gains-db" else edge
    # every value through `=`, so argparse never reads a negative number as a flag
    argv = [command]
    for key, value in options.items():
        text = ",".join(map(repr, value)) if key == "gains-db" else repr(value)
        argv.append(f"--{key}={text}")
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=150, deadline=None)
@given(argv=_scalar_argv())
def test_scalar_calls_end_cleanly_on_any_float(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = secnoma.cli.main(argv)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE)
    assert err.getvalue().count("\n") <= 1
    if rc == EXIT_OK:
        assert not re.search("nan|inf", out.getvalue(), re.IGNORECASE), out.getvalue()


def test_max_min_rate_worked_instance():
    rc, out, _ = run_cli(
        "max-min-rate", "--gains-db", GAINS_DB, "--eaves-db", "0",
        "--eps", EPS, "--p-dbm", "0", "--json",
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["max_min_rate"] == pytest.approx(1.0336483814804196, abs=1e-8)
    assert payload["iterations"] == 35
    assert payload["total_power_mw"] <= payload["power_budget_mw"] == pytest.approx(1.0)
    assert all(p > 0 for p in payload["powers_mw"])


def test_max_min_rate_infeasible():
    rc, out, _ = run_cli(
        "max-min-rate", "--gains-db=-3,10", "--eaves-db", "0",
        "--eps", EPS, "--p-dbm", "0", "--json",
    )
    assert rc == EXIT_INFEASIBLE
    payload = json.loads(out)
    assert payload["reason"] == "positive_rate"
    assert payload["failing_users"] == [1]


def test_compare_oma_worked_instance():
    rc, out, _ = run_cli(
        "compare-oma", "--gains-db", GAINS_DB, "--eaves-db", "0",
        "--eps", EPS, "--p-dbm", "0", "--json",
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["rate_noma"] == pytest.approx(1.0336483814804196, abs=1e-9)
    assert payload["rate_tdma_optimal"] == pytest.approx(0.9638296302454304, abs=1e-9)
    assert payload["rate_tdma_equal"] == pytest.approx(0.792481250360578, abs=1e-9)
    assert payload["ratio"] == pytest.approx(1.0724388927711326, abs=1e-9)
    rc, out, _ = run_cli(
        "compare-oma", "--gains-db", GAINS_DB, "--eaves-db", "0", "--eps", EPS, "--p-dbm", "0"
    )
    assert rc == EXIT_OK and "ratio: 1.072438893" in out


def test_compare_oma_infeasible():
    rc, out, _ = run_cli(
        "compare-oma", "--gains-db=-3,10", "--eaves-db", "0",
        "--eps", EPS, "--p-dbm", "0", "--json",
    )
    assert rc == EXIT_INFEASIBLE
    payload = json.loads(out)
    assert payload["failing_users"] == [1]
    assert payload["reason"] == "positive_rate"


def test_solver_self_check_failure_is_one_line_error(monkeypatch, capsys):
    def broken(*_):
        raise RuntimeError("superposition failed to beat optimal TDMA on unequal gains")

    monkeypatch.setattr(secnoma.tdma, "compare_maxmin", broken)
    rc = secnoma.cli.main(
        ["compare-oma", "--gains-db", GAINS_DB, "--eaves-db", "0", "--eps", EPS, "--p-dbm", "0"]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err == "error: superposition failed to beat optimal TDMA on unequal gains\n"


SWEEP_CONFIG = """\
# three-point floor sweep on a fixed two-user channel
kind = power_vs_Q
axis = q
axis_start = 0.1
axis_stop = 0.3
axis_steps = 3
eps = 0.1
gamma_e_db = 20
k = 2
"""


def test_sweep_runs_and_reruns_identically(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    cfg.write_text(SWEEP_CONFIG + f"out = {out1}\n")
    rc, stdout, _ = run_cli("sweep", "--config", str(cfg))
    assert rc == EXIT_OK
    assert f"wrote 9 rows to {out1}" in stdout
    rc, _, _ = run_cli("sweep", "--config", str(cfg), "--out", str(out2))
    assert rc == EXIT_OK
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"x,scheme,metric,value,stderr,feasible_frac,trials,seed\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/null and /dev/stdout")
def test_sweep_writes_to_a_device_or_a_pipe(tmp_path):
    # neither has a length to cut after the rows
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    rc, stdout, err = run_cli("sweep", "--config", str(cfg), "--out", os.devnull)
    assert (rc, err) == (EXIT_OK, "")
    assert f"wrote 9 rows to {os.devnull}" in stdout
    # run_cli's stdout is a pipe
    rc, stdout, err = run_cli("sweep", "--config", str(cfg), "--out", "/dev/stdout")
    assert (rc, err) == (EXIT_OK, "")
    assert stdout.startswith("x,scheme,metric,value,stderr,feasible_frac,trials,seed\n")
    assert stdout.count("\n") == 11


def test_sweep_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind power_vs_Q\n")
    rc, _, err = run_cli("sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv"))
    assert rc == EXIT_USAGE and "sweep config error" in err

    missing = tmp_path / "missing.cfg"
    missing.write_text("kind = power_vs_Q\naxis = q\n")
    rc, _, err = run_cli("sweep", "--config", str(missing), "--out", str(tmp_path / "x.csv"))
    assert rc == EXIT_USAGE and "missing required key" in err

    rc, _, err = run_cli("sweep", "--config", str(tmp_path / "nope.cfg"), "--out", "x.csv")
    assert rc == EXIT_USAGE

    no_out = tmp_path / "no_out.cfg"
    no_out.write_text(SWEEP_CONFIG)
    rc, _, err = run_cli("sweep", "--config", str(no_out))
    assert rc == EXIT_USAGE and "no output path" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("trials", "2.5", "trials must be an integer, not '2.5'"),
        ("seed", "1e3", "seed must be an integer, not '1e3'"),
        ("axis_steps", "3.0", "axis_steps must be an integer, not '3.0'"),
        ("axis_start", "low", "axis_start must be a number, not 'low'"),
        ("axis_stop", "0.3.1", "axis_stop must be a number, not '0.3.1'"),
        ("eps", "abc", "eps must be a number, not 'abc'"),
    ],
)
def test_sweep_config_value_error_names_its_key(tmp_path, capsys, key, value, message):
    lines = [line for line in SWEEP_CONFIG.splitlines() if not line.startswith(f"{key} =")]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
    out = tmp_path / "x.csv"
    assert secnoma.cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"sweep config error: {message}\n"
    assert not out.exists()


def test_sweep_negative_seed_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG + "seed = -1\n")
    out = tmp_path / "x.csv"
    assert secnoma.cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "sweep config error: seed must be nonnegative\n"
    assert not out.exists()


def test_sweep_missing_fixed_key_is_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.replace("gamma_e_db = 20\n", ""))
    out = tmp_path / "x.csv"
    assert secnoma.cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: sweep kind 'power_vs_Q' needs the fixed key 'gamma_e_db'\n"
    assert not out.exists()


def test_sweep_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG + "gain_slpoe_db = 2\n")
    out = tmp_path / "x.csv"
    assert secnoma.cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "sweep config error: unknown key 'gain_slpoe_db' "
        "(allowed: eps, gain_base_db, gain_slope_db, gamma_e_db, k)\n"
    )
    assert not out.exists()


def test_sweep_repeated_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG + "eps = 0.2\n")
    out = tmp_path / "x.csv"
    assert secnoma.cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"sweep config error: {cfg}:10: key 'eps' given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["2.5", "0"])
def test_sweep_non_whole_user_count_is_config_error(tmp_path, capsys, k):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.replace("k = 2\n", f"k = {k}\n"))
    out = tmp_path / "x.csv"
    assert secnoma.cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    message = f"sweep config error: fixed key 'k' must be a positive whole number, not {k}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing_dir/x.csv", "."], ids=["missing directory", "directory"])
def test_sweep_unwritable_output_is_one_line_error(tmp_path, target):
    out = tmp_path / target
    rc, stdout, err = run_cli("sweep", "--config", str(_ROOT / "scripts/specs/power_vs_qos.spec"), "--out", str(out))
    assert rc == EXIT_USAGE and stdout == ""
    assert err.startswith("sweep output error: ") and err.count("\n") == 1
    assert str(out) in err


SHIPPED_SPECS = [path for folder in ("scripts", "perfbench") for path in sorted((_ROOT / folder / "specs").glob("*.spec"))]


@pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda path: f"{path.parent.parent.name}/{path.stem}")
def test_shipped_specs_parse(path):
    mapping = secnoma.cli._read_config(path)
    mapping.pop("out")
    SweepSpec.from_mapping(mapping)


def test_geometry_path_is_seeded(tmp_path):
    args = (
        "min-power", "--num-users", "2", "--d-user", "30", "--d-eave", "100",
        "--q", "0.3", "--eps", "0.2", "--json",
    )
    rc1, out1, _ = run_cli(*args, "--seed", "4")
    rc2, out2, _ = run_cli(*args, "--seed", "4")
    assert (rc1, out1) == (rc2, out2)
    assert rc1 == EXIT_OK
    rc3, out3, _ = run_cli(*args, "--seed", "5")
    assert rc3 == EXIT_OK
    assert json.loads(out1)["gains"] != json.loads(out3)["gains"]


def _is_numpy_realization(channel, geometry, seed):
    # numpy's own generator: the CLI draws through sample_realization, so a
    # check against that would compare the draw with itself
    return channel.eaves_avg_gain == geometry.eaves_avg_gain() and near_numpy_gains(channel.user_gains, geometry, seed)


@pytest.mark.parametrize("seed", [0, 4, 2**64 - 1])
def test_geometry_path_draws_the_library_realization(seed):
    parser = secnoma.cli.build_parser()
    args = parser.parse_args(["max-min-rate", "--num-users", "3", "--d-user", "50", "--d-eave", "80",
                              "--p-dbm", "20", "--eps", "0.3", "--seed", str(seed)])
    geometry = NetworkGeometry((50.0,) * 3, 80.0, 4.0, dbm_to_mw(-70.0), dbm_to_mw(-70.0))
    assert _is_numpy_realization(secnoma.cli._channel_from_args(args, parser), geometry, seed)


_GEOMETRY_ARGS = ["min-power", "--num-users", "3", "--d-user", "40", "--d-eave", "90",
                  "--q", "0.3", "--eps", "0.2", "--seed", "7"]


@pytest.mark.parametrize(
    "options, alpha, noise_dbm, eaves_noise_dbm",
    [
        (["--alpha", "3.2", "--noise-dbm", "-80", "--eaves-noise-dbm", "-65"], 3.2, -80.0, -65.0),
        (["--noise-dbm", "-80"], 4.0, -80.0, -80.0),  # eavesdropper noise follows the user's
        ([], 4.0, -70.0, -70.0),  # the sweep spec's defaults
    ],
    ids=["all set", "user noise only", "omitted"],
)
def test_geometry_options_reach_the_draw(options, alpha, noise_dbm, eaves_noise_dbm):
    parser = secnoma.cli.build_parser()
    args = parser.parse_args(_GEOMETRY_ARGS + options)
    geometry = NetworkGeometry((40.0,) * 3, 90.0, alpha, dbm_to_mw(noise_dbm), dbm_to_mw(eaves_noise_dbm))
    assert _is_numpy_realization(secnoma.cli._channel_from_args(args, parser), geometry, 7)


def test_min_power_matches_oracle_after_db_round_trip():
    # geometry-free dB inputs land on the same instance the library solves
    rc, out, _ = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", EPS, "--json"
    )
    payload = json.loads(out)
    total_dbm = payload["total_power_dbm"]
    assert total_dbm == pytest.approx(10.0 * math.log10(17.0 / 19.0), abs=1e-8)



# Each case runs in a fresh interpreter, which then reports its exit status,
# the numpy submodules it loaded and which of `dataclasses`, `inspect` and
# `json` it loaded, before the report's own json import. The package's lazy
# `numpy` placeholder is not an import of numpy; numpy's own `__init__` loads
# `numpy._core`.
_RUN_CLI = """\
import runpy
try:
    runpy.run_module("secnoma", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
"""
_REPORT = """\
import sys
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
stdlib = [name for name in ("dataclasses", "inspect", "json") if name in sys.modules]
import json
print(json.dumps([globals().get("status", 0), loaded, stdlib]))
"""
_SPECS_DIR = _ROOT / "scripts" / "specs"
_FIXED_SPECS = [
    path for path in sorted(_SPECS_DIR.glob("*.spec"))
    if secnoma.cli._read_config(path)["kind"] in ("power_vs_Q", "rate_vs_P", "beta_vs_eps")
]
_GEOMETRY_CALL = ("max-min-rate", "--num-users", "3", "--d-user", "50", "--d-eave", "80",
                  "--seed", "11", "--p-dbm", "20", "--eps", "0.3")  # a feasible draw
_SCALAR_CASES = {
    "import": ("import secnoma\n",),
    "help": (_RUN_CLI, "--help"),
    "min-power": (_RUN_CLI, "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", EPS),
    "max-min-rate": (_RUN_CLI, "max-min-rate", "--gains-db", GAINS_DB, "--eaves-db", "0", "--p-dbm", "20", "--eps", EPS),
    "compare-oma": (_RUN_CLI, "compare-oma", "--gains-db", GAINS_DB, "--eaves-db", "0", "--p-dbm", "0", "--eps", EPS),
    "compare-oma-json": (
        _RUN_CLI, "compare-oma", "--gains-db", GAINS_DB, "--eaves-db", "0", "--p-dbm", "0", "--eps", EPS, "--json"
    ),
    **{f"sweep-{path.stem}": (_RUN_CLI, "sweep", "--config", str(path)) for path in _FIXED_SPECS},
    # one draw is taken on Python ints and floats
    "max-min-rate-geometry": (_RUN_CLI, *_GEOMETRY_CALL),
}


def modules_after(workdir, code, *args):
    """numpy's submodules, and which of `dataclasses`, `inspect` and `json`,
    loaded once `code` has run with `args` as argv, in a fresh interpreter in
    workdir (a sweep writes its CSV there); the run must succeed."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *args], cwd=workdir, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    status, loaded, stdlib = json.loads(proc.stdout.splitlines()[-1])
    assert status == EXIT_OK, proc.stderr
    return loaded, stdlib


@pytest.mark.parametrize("case", _SCALAR_CASES)
def test_scalar_calls_never_import_numpy(case, tmp_path):
    loaded, stdlib = modules_after(tmp_path, *_SCALAR_CASES[case])
    assert loaded == []
    # importing `dataclasses`, and `inspect` with it, costs a process about
    # 20 ms; json is loaded only to print a --json payload
    assert stdlib == (["json"] if "--json" in _SCALAR_CASES[case] else [])


def test_array_calls_import_numpy(tmp_path):
    # the positive control: the same probe sees numpy where array code runs.
    # The draws and the root's sub-seeds are the package's own SeedSequence
    # and Philox: no call loads numpy.random
    for name in ("avg_rate_vs_eps", "gain_vs_users"):
        loaded, _ = modules_after(tmp_path, _RUN_CLI, "sweep", "--config", str(_SPECS_DIR / f"{name}.spec"))
        assert "numpy._core" in loaded and "numpy.random" not in loaded
        assert (tmp_path / f"{name}.csv").exists()
    assert len(_FIXED_SPECS) == 4


def test_library_draw_and_sub_seeds_load_no_numpy_random(tmp_path):
    code = (
        "from secnoma import NetworkGeometry, sample_realization, trial_seeds\n"
        "sample_realization(NetworkGeometry((50.0,) * 3, 80.0, 4.0, 1e-7, 1e-7), 11)\n"
        "trial_seeds(2**255 + 12345, 5)\n"
    )
    loaded, _ = modules_after(tmp_path, code)
    assert "numpy._core" in loaded and "numpy.random" not in loaded


# each call imports its handler's solver modules and nothing else; the
# channel (and its lazy numpy) comes with the CLI itself. The fading draw
# (`_draw`) loads only where a call samples gains, the row solvers (`_rows`)
# only in a fading sweep, and `tdma` only in the two sweeps that compare
# against it.
_CLI_MODULES = ["secnoma", "secnoma._lazy", "secnoma._record", "secnoma.channel", "secnoma.cli"]
_SWEEP_MODULES = ["experiments", "maxmin", "power_min", "secrecy"]
_TDMA_KINDS = ("power_vs_Q", "rate_vs_P")
_FADING_SPECS = ("avg_rate_vs_eps", "gain_vs_users")
_SOLVER_MODULES = {
    "help": [],
    "min-power": ["power_min", "secrecy"],
    "max-min-rate": ["maxmin", "power_min", "secrecy"],
    "compare-oma": ["maxmin", "power_min", "secrecy", "tdma"],
    "max-min-rate-geometry": ["_draw", "maxmin", "power_min", "secrecy"],
    **{
        f"sweep-{path.stem}": _SWEEP_MODULES + ["tdma"] * (secnoma.cli._read_config(path)["kind"] in _TDMA_KINDS)
        for path in _FIXED_SPECS
    },
    **{f"sweep-{name}": ["_draw", "_rows", *_SWEEP_MODULES] for name in _FADING_SPECS},
}
_PACKAGE_REPORT = """\
import json, sys
print(json.dumps([globals().get("status", 0), sorted(m for m in sys.modules if m.split(".")[0] == "secnoma")]))
"""


@pytest.mark.parametrize("case", _SOLVER_MODULES)
def test_each_call_loads_only_its_modules(case, tmp_path):
    fading = {f"sweep-{name}": (_RUN_CLI, "sweep", "--config", str(_SPECS_DIR / f"{name}.spec")) for name in _FADING_SPECS}
    code, *args = {**_SCALAR_CASES, **fading}[case]
    proc = subprocess.run(
        [sys.executable, "-c", code + _PACKAGE_REPORT, *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    status, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert status == EXIT_OK, proc.stderr
    assert loaded == sorted(_CLI_MODULES + [f"secnoma.{name}" for name in _SOLVER_MODULES[case]])


def test_tol_help_names_the_default(capsys):
    # --help imports no solver, so the help text spells the default out
    with pytest.raises(SystemExit):
        secnoma.cli.main(["max-min-rate", "--help"])
    assert f"(default {secnoma.maxmin.DEFAULT_TOL:g})" in " ".join(capsys.readouterr().out.split())


def test_lazy_module_runs_the_module_on_first_attribute_access(tmp_path, monkeypatch):
    (tmp_path / "lazy_probe.py").write_text('import os\nos.environ["LAZY_PROBE"] = "ran"\nVALUE = 42\n')
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("LAZY_PROBE", "")
    finders = list(sys.meta_path)
    try:
        module = lazy_module("lazy_probe")
        assert sys.meta_path == finders
        assert os.environ["LAZY_PROBE"] == ""
        assert module.VALUE == 42
        assert os.environ["LAZY_PROBE"] == "ran"
        assert lazy_module("lazy_probe") is module is sys.modules["lazy_probe"]
    finally:
        sys.modules.pop("lazy_probe", None)
    with pytest.raises(ModuleNotFoundError):
        lazy_module("lazy_probe_missing")
    assert sys.meta_path == finders


def test_importtime_report_lists_the_deferred_numpy(tmp_path):
    # `-X importtime` readers (the per-layer cold-start probe among them) see
    # numpy bound by `import secnoma.cli`, although numpy's own code never runs
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import secnoma.cli\n" + _REPORT],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert names.count("numpy") == 1
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, [], []]
