"""Command-line front end.

Gains come in as dB, powers as dBm; everything internal is linear mW. Exit
status: 0 feasible result, 2 infeasible instance, 1 bad usage or bad config.
"""
from __future__ import annotations

import argparse
import sys

# every handler needs the channel; each imports its own solver modules, so a
# call loads only the modules it runs
from .channel import _GEOMETRY_KEYS, ChannelRealization, _geometry, db_to_linear, dbm_to_mw, mw_to_dbm, sample_realization

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasible instances here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_channel_options(sub):
    sub.add_argument("--gains-db", help="comma-separated user gains, dB (skips geometry)")
    sub.add_argument("--eaves-db", type=float, help="average eavesdropper gain, dB")
    sub.add_argument("--num-users", type=int, help="user count for the geometry path")
    sub.add_argument("--d-user", type=float, help="user distance, m (all users)")
    sub.add_argument("--d-eave", type=float, help="eavesdropper distance, m")
    # the geometry options are named as the sweep spec's geometry keys, whose
    # defaults they share
    sub.add_argument("--alpha", type=float, help="path-loss exponent")
    sub.add_argument("--noise-dbm", type=float, help="user noise floor, dBm")
    sub.add_argument("--eaves-noise-dbm", type=float, help="eavesdropper noise floor, dBm")
    sub.add_argument("--seed", type=int, default=0, help="fading seed for the geometry path")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _channel_from_args(args, parser) -> ChannelRealization:
    if args.gains_db is not None:
        if args.eaves_db is None:
            parser.error("--gains-db requires --eaves-db")
        try:
            gains = sorted(db_to_linear(float(g)) for g in args.gains_db.split(","))
        except ValueError:
            parser.error(f"cannot parse --gains-db value {args.gains_db!r}")
        return ChannelRealization(tuple(gains), db_to_linear(args.eaves_db))
    if args.num_users is None or args.d_user is None or args.d_eave is None:
        parser.error("provide either --gains-db or --num-users/--d-user/--d-eave")
    fixed = {key: value for key, value in vars(args).items() if key in _GEOMETRY_KEYS and value is not None}
    geometry = _geometry(fixed, args.num_users)
    return sample_realization(geometry, args.seed)


def _print_json(payload):
    # only a --json call pays for importing json
    import json

    print(json.dumps(payload))


def _print_verdict(verdict, as_json):
    failing = sorted(verdict.failing_user_indices)
    if as_json:
        _print_json({"feasible": False, "reason": verdict.reason.value, "failing_users": failing})
    else:
        print("feasible: no")
        print(f"reason: {verdict.reason.value}")
        print("failing users:", " ".join(str(k) for k in failing))
    return EXIT_INFEASIBLE


def _cmd_min_power(args, parser):
    from .power_min import InfeasibleVerdict, solve_min_power
    from .secrecy import SecrecyRequirement, secrecy_outage_closed_form

    channel = _channel_from_args(args, parser)
    requirement = SecrecyRequirement(args.q, args.eps)
    solution = solve_min_power(channel, requirement)
    if isinstance(solution, InfeasibleVerdict):
        return _print_verdict(solution, args.json)
    outages = [
        secrecy_outage_closed_form(channel, solution.allocation, args.q, k)
        for k in range(1, channel.num_users + 1)
    ]
    if args.json:
        _print_json(
            {
                "feasible": True,
                "gains": list(channel.user_gains),
                "eaves_avg_gain": channel.eaves_avg_gain,
                "powers_mw": list(solution.allocation.powers_mw),
                "total_power_mw": solution.total_power_mw,
                "total_power_dbm": mw_to_dbm(solution.total_power_mw),
                "codeword_rates": [rp.codeword_rate for rp in solution.rate_pairs],
                "confidential_rate": args.q,
                "outage": outages,
            }
        )
        return EXIT_OK
    print("feasible: yes")
    print(f"users: {channel.num_users}")
    print("  k       gain   power_mw  power_dbm  codeword_rate  outage")
    for k in range(1, channel.num_users + 1):
        p = solution.allocation.powers_mw[k - 1]
        print(
            f"  {k}  {channel.user_gains[k - 1]:>9.4g}  {p:>9.6g}  {mw_to_dbm(p):>9.4f}"
            f"  {solution.rate_pairs[k - 1].codeword_rate:>13.6f}  {outages[k - 1]:.6f}"
        )
    print(f"confidential rate per user: {args.q:.6f}")
    print(f"total_power_mw: {solution.total_power_mw:.10g}")
    print(f"total_power_dbm: {mw_to_dbm(solution.total_power_mw):.6f}")
    return EXIT_OK


def _cmd_max_min_rate(args, parser):
    from .maxmin import DEFAULT_TOL, solve_maxmin_bisection
    from .power_min import InfeasibleVerdict

    channel = _channel_from_args(args, parser)
    p_mw = dbm_to_mw(args.p_dbm)
    tol = DEFAULT_TOL if args.tol is None else args.tol
    solution = solve_maxmin_bisection(channel, args.eps, p_mw, tol)
    if isinstance(solution, InfeasibleVerdict):
        return _print_verdict(solution, args.json)
    if args.json:
        _print_json(
            {
                "feasible": True,
                "gains": list(channel.user_gains),
                "max_min_rate": solution.rate,
                "powers_mw": list(solution.allocation.powers_mw),
                "total_power_mw": solution.allocation.total_mw,
                "power_budget_mw": p_mw,
                "iterations": solution.iterations_used,
            }
        )
        return EXIT_OK
    print("feasible: yes")
    print(f"max_min_rate: {solution.rate:.10g}")
    print("powers_mw:", " ".join(f"{p:.10g}" for p in solution.allocation.powers_mw))
    print(f"total_power_mw: {solution.allocation.total_mw:.10g} (budget {p_mw:.10g})")
    print(f"iterations: {solution.iterations_used}")
    return EXIT_OK


def _cmd_compare_oma(args, parser):
    from .maxmin import _gate
    from .tdma import compare_maxmin

    channel = _channel_from_args(args, parser)
    p_mw = dbm_to_mw(args.p_dbm)
    verdict = _gate(channel, args.eps)[1]
    if verdict is not None:
        return _print_verdict(verdict, args.json)
    result = compare_maxmin(channel, args.eps, p_mw)
    payload = {
        "feasible": True,
        "rate_noma": result.rate_noma,
        "rate_tdma_optimal": result.rate_tdma_optimal,
        "rate_tdma_equal": result.rate_tdma_equal,
        "ratio": result.ratio,
    }
    if args.json:
        _print_json(payload)
    else:
        for key in ("rate_noma", "rate_tdma_optimal", "rate_tdma_equal", "ratio"):
            print(f"{key}: {payload[key]:.10g}")
    return EXIT_OK


def _read_config(path):
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep or not key or not value:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            if key in mapping:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            mapping[key] = value
    return mapping


def _cmd_sweep(args, parser):
    from .experiments import SweepSpec, run_sweep, write_results

    try:
        mapping = _read_config(args.config)
        config_out = mapping.pop("out", None)
        out = args.out or config_out
        if out is None:
            raise ValueError("no output path: pass --out or put 'out = ...' in the config")
        spec = SweepSpec.from_mapping(mapping)
    except (OSError, ValueError) as exc:
        print(f"sweep config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = run_sweep(spec)
    try:
        write_results(rows, out)
    except OSError as exc:
        print(f"sweep output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="secnoma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("min-power", help="cheapest allocation meeting a per-user QoS floor")
    _add_channel_options(p_min)
    p_min.add_argument("--q", type=float, required=True, help="confidential rate floor, bits/use")
    p_min.add_argument("--eps", type=float, required=True, help="secrecy outage bound in (0,1)")
    p_min.set_defaults(handler=_cmd_min_power)

    p_max = sub.add_parser("max-min-rate", help="largest common confidential rate under a budget")
    _add_channel_options(p_max)
    p_max.add_argument("--p-dbm", type=float, required=True, help="total power budget, dBm")
    p_max.add_argument("--eps", type=float, required=True, help="secrecy outage bound in (0,1)")
    p_max.add_argument("--tol", type=float, help="bisection rate tolerance (default 1e-10)")
    p_max.set_defaults(handler=_cmd_max_min_rate)

    p_cmp = sub.add_parser("compare-oma", help="superposition vs TDMA max-min rates")
    _add_channel_options(p_cmp)
    p_cmp.add_argument("--p-dbm", type=float, required=True, help="total power budget, dBm")
    p_cmp.add_argument("--eps", type=float, required=True, help="secrecy outage bound in (0,1)")
    p_cmp.set_defaults(handler=_cmd_compare_oma)

    p_swp = sub.add_parser("sweep", help="run a sweep spec from a config file, write CSV")
    p_swp.add_argument("--config", required=True, help="flat key = value config file")
    p_swp.add_argument("--out", help="output CSV path (overrides 'out' in the config)")
    p_swp.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        print("error: an input is too large: the arithmetic overflows", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
