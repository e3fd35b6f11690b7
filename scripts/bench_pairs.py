#!/usr/bin/env python3
"""Run the benchmark in pairs on two checkouts and record every result.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload eps_sweep \
        [--seed 11] [--pairs 10] --out BENCH.json

Each pair runs `perfbench/run.py` once in each checkout, the parent first in
even pairs and the change first in odd ones. In cli_calls pairs, the
workload about start-up cost, each pair is followed by the CLI cold starts
of both checkouts (`cold_start_ms`): ten rounds over every call of
`perfbench.clicalls.make_calls(seed)`, each call run as a fresh
`python -m secnoma` process on one checkout's sources and then on the
other's, in a temporary directory, with the side that goes first
alternating from round to round; each call's median wall time per side is
recorded. Every run's record line and result line, and the cold starts,
are appended to the JSON file at --out (created if missing), and the
summary of each (workload, seed) is rebuilt from all its pairs: per
end-to-end metric and per cold-start call, the median and quartiles of
each side and the number of pairs the change won (ties count for neither).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLD_START_WORKLOAD = "cli_calls"
COLD_START_ROUNDS = 10
# each call of the cli_calls workload as (key, argv), printed by a checkout
_LIST_CALLS = (
    "import json, sys\n"
    "from perfbench.clicalls import make_calls\n"
    "print(json.dumps([[c.key, list(c.argv)] for c in make_calls(int(sys.argv[1]))]))\n"
)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("run record: "))
    return {"record": json.loads(record.removeprefix("run record: ")), "result": json.loads(lines[-1])}


def _env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def cold_start_ms(checkouts: dict[str, Path], seed: int) -> dict[str, dict[str, float]]:
    """Per side, each cli_calls call's median wall time in ms over
    COLD_START_ROUNDS alternating rounds of fresh processes. Both sides
    must give a call the same exit status and output."""
    calls = {}
    for side, checkout in checkouts.items():
        proc = subprocess.run([sys.executable, "-c", _LIST_CALLS, str(seed)], cwd=checkout,
                              env=_env(checkout), capture_output=True, text=True, check=True)
        calls[side] = json.loads(proc.stdout)
    sides = list(checkouts)
    times = {side: {key: [] for key, _ in calls[side]} for side in sides}
    with tempfile.TemporaryDirectory() as workdir:
        for r in range(COLD_START_ROUNDS):
            order = sides if r % 2 == 0 else sides[::-1]
            for i in range(len(calls[sides[0]])):
                outputs = set()
                for side in order:
                    key, argv = calls[side][i]
                    t0 = time.perf_counter()
                    proc = subprocess.run([sys.executable, "-m", "secnoma", *argv], cwd=workdir,
                                          env=_env(checkouts[side]), capture_output=True, text=True)
                    times[side][key].append((time.perf_counter() - t0) * 1e3)
                    outputs.add((key, proc.returncode, proc.stdout))
                if len(outputs) != 1:
                    raise RuntimeError(f"the checkouts disagree on a cold-start call: {sorted(outputs)}")
    return {side: {key: statistics.median(values) for key, values in times[side].items()} for side in sides}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    sign = 1.0 if direction == "higher" else -1.0
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_ratio": statistics.median(change) / statistics.median(parent),
    }


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        summary[name] = compare(parent, change, direction)
    if "cold_start_ms" in pairs[0]:
        starts = [p["cold_start_ms"] for p in pairs]
        summary["cold_start_ms"] = {
            key: compare([s["parent"][key] for s in starts], [s["change"][key] for s in starts], "lower")
            for key in starts[0]["parent"]
        }
    summary["failed"] = {
        side: sum(p[side]["result"]["failed"] for p in pairs) for side in ("parent", "change")
    }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, type=Path, help="JSON file to extend")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}, "summary": {}}
    key = f"{args.workload}/seed{args.seed}"
    pairs = data["runs"].setdefault(key, [])
    for i in range(args.pairs):
        order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, args.seed)
        if args.workload == COLD_START_WORKLOAD:
            pair["cold_start_ms"] = cold_start_ms({side: getattr(args, side) for side in order}, args.seed)
        pairs.append(pair)
        data["summary"][key] = summarise(pairs, better)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
        print(f"{key} pair {len(pairs)}: " + " ".join(
            f"{s}={pair[s]['result']['metrics']['norm_ops_per_s']['value']:.6g}"
            + (f" (cold starts {sum(pair['cold_start_ms'][s].values()):.0f} ms)" if "cold_start_ms" in pair else "")
            for s in order
        ), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
