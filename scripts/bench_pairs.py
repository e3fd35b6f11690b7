#!/usr/bin/env python3
"""Run the benchmark in pairs on two checkouts and record every result.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload eps_sweep \
        [--seed 11] [--pairs 10] --out BENCH.json

Each pair runs `perfbench/run.py` once in each checkout, the parent first in
even pairs and the change first in odd ones. In cli_calls pairs, the
workload about start-up cost, each run is followed by the same side's CLI
cold start: the median wall time of five fresh `python -m secnoma --help`
processes on that checkout's sources (`help_wall_s`; it does not depend on
the workload, so the other workloads do not repeat it). Every run's record
line, result line and cold start are appended to the JSON file at --out
(created if missing), and the summary of each (workload, seed) is rebuilt
from all its pairs: per end-to-end metric and for the cold start, the median
and quartiles of each side and the number of pairs the change won (ties
count for neither).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLD_STARTS = 5
COLD_START_WORKLOAD = "cli_calls"


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("run record: "))
    return {"record": json.loads(record.removeprefix("run record: ")), "result": json.loads(lines[-1])}


def help_wall_s(checkout: Path) -> float:
    """Median wall time of fresh `python -m secnoma --help` processes that
    import the package from the checkout's `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "secnoma", "--help"], cwd=checkout, env=env,
                       capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


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
    if "help_wall_s" in pairs[0]["parent"]:
        summary["help_wall_s"] = compare(
            [p["parent"]["help_wall_s"] for p in pairs], [p["change"]["help_wall_s"] for p in pairs], "lower"
        )
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
                pair[side]["help_wall_s"] = help_wall_s(getattr(args, side))
        pairs.append(pair)
        data["summary"][key] = summarise(pairs, better)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
        print(f"{key} pair {len(pairs)}: " + " ".join(
            f"{s}={pair[s]['result']['metrics']['norm_ops_per_s']['value']:.6g}"
            + (f" (--help {pair[s]['help_wall_s'] * 1e3:.0f} ms)" if "help_wall_s" in pair[s] else "")
            for s in order
        ), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
