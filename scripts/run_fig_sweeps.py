#!/usr/bin/env python3
"""Run the seven standard sweep studies and drop one CSV per study.

Deterministic for a fixed seed; rerunning overwrites byte-identical files.
"""
import argparse
import pathlib
import sys

from secnoma import SweepAxis, SweepSpec, run_sweep, write_results

STUDIES = {
    # minimum transmit power vs per-user QoS floor, fixed two-user channel
    "power_vs_qos": SweepSpec(
        "power_vs_Q",
        SweepAxis("q", 0.02, 0.40, 39),
        {"k": 2, "gain_base_db": 23.0, "gain_slope_db": 2.0, "gamma_e_db": 20.0, "eps": 0.1},
    ),
    # max-min confidential rate vs power budget, same channel
    "rate_vs_budget": SweepSpec(
        "rate_vs_P",
        SweepAxis("p_dbm", 0.0, 40.0, 21),
        {"k": 2, "gain_base_db": 23.0, "gain_slope_db": 2.0, "gamma_e_db": 20.0, "eps": 0.1},
    ),
    # weak user's optimal budget share vs outage tolerance, two eavesdropper grades
    "split_vs_eps_ge17": SweepSpec(
        "beta_vs_eps",
        SweepAxis("eps", 0.10, 0.50, 9),
        {"k": 2, "gain_base_db": 22.0, "gain_slope_db": 2.0, "gamma_e_db": 17.0, "p_dbm": 20.0},
    ),
    "split_vs_eps_ge20": SweepSpec(
        "beta_vs_eps",
        SweepAxis("eps", 0.10, 0.50, 9),
        {"k": 2, "gain_base_db": 22.0, "gain_slope_db": 2.0, "gamma_e_db": 20.0, "p_dbm": 20.0},
    ),
    # fading-averaged max-min rate vs outage tolerance
    "avg_rate_vs_eps": SweepSpec(
        "avg_rate_vs_eps",
        SweepAxis("eps", 0.05, 0.45, 9),
        {"k": 2, "d_user": 50.0, "d_eave": 80.0, "alpha": 4.0, "noise_dbm": -70.0, "p_dbm": 20.0},
        trials=5000,
        seed=11,
    ),
    # superposition-over-TDMA rate ratio vs user count
    "gain_vs_users": SweepSpec(
        "gain_vs_K",
        SweepAxis("k", 2, 6, 5),
        {"d_user": 50.0, "d_eave": 80.0, "alpha": 4.0, "noise_dbm": -70.0, "eps": 0.1, "p_dbm": 20.0},
        trials=5000,
        seed=11,
    ),
    # same statistics for users and eavesdropper: the ratio should survive
    "gain_vs_users_equal_stats": SweepSpec(
        "gain_vs_K",
        SweepAxis("k", 2, 4, 3),
        {"d_user": 80.0, "d_eave": 80.0, "alpha": 4.0, "noise_dbm": -70.0, "eps": 0.1, "p_dbm": 20.0},
        trials=5000,
        seed=11,
    ),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="directory for the CSVs")
    ap.add_argument("--only", nargs="*", choices=sorted(STUDIES), help="subset of studies")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.only or sorted(STUDIES)
    for name in names:
        rows = run_sweep(STUDIES[name])
        path = outdir / f"{name}.csv"
        write_results(rows, path)
        print(f"{name}: {len(rows)} rows -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
