import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import secnoma.cli
from secnoma import ChannelRealization, PowerAllocation, SweepSpec, secrecy_outage_closed_form
from secnoma.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE

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

    monkeypatch.setattr(secnoma.cli, "compare_maxmin", broken)
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


def test_min_power_matches_oracle_after_db_round_trip():
    # geometry-free dB inputs land on the same instance the library solves
    rc, out, _ = run_cli(
        "min-power", "--gains-db", GAINS_DB, "--eaves-db", "0", "--q", "1", "--eps", EPS, "--json"
    )
    payload = json.loads(out)
    total_dbm = payload["total_power_dbm"]
    assert total_dbm == pytest.approx(10.0 * math.log10(17.0 / 19.0), abs=1e-8)
