#!/usr/bin/env python3
"""Benchmark of the secnoma package, one workload per run.

    python3 perfbench/run.py --workload eps_sweep [--seed 11] [--seconds 25] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src`. With `--trace 0` the run reports the end-to-end metrics,
with `--trace 1` the per-layer metrics of a separate traced run (see
BENCHMARK.json for both lists). Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.

Every workload does one checked warm-up, then repeats a fixed unit of work
until `--seconds` have passed. On a machine that shares its cores, speed can
change by up to 2x in phases of seconds to minutes, longer than a run. So
each unit is split into short pieces, every piece is timed between two runs
of a fixed reference kernel (reference.py), and `norm_ops_per_s` is the
unit's work over the sum of each piece's median time ratio to the kernel,
scaled by the kernel's nominal time. Set-up probes, spread over the run,
each follow a run of an import reference, and `setup_s` is their median time
ratio to it, scaled the same way. The measured figures are printed beside
them. Output checks run outside the timed sections; a check that fails
counts its operation as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import (  # noqa: E402
    BENCH_DIR,
    DEFAULT_SEED,
    ROOT,
    SRC,
    child_env,
    median,
    normalised_throughput,
    run_record,
    tail,
)
from perfbench.reference import IMPORT_REF_S, REF_S, import_reference_s  # noqa: E402
from perfbench.workloads import WORKLOADS, build  # noqa: E402

SETUP_REPEATS = 11
MIN_UNITS = 3
CLI_MAIN_CYCLES = 20
OUT_DIR = ROOT / ".perfbench_out"

# per workload: what one operation is, the measured throughput's name there, and
# the printed request latency (median name, tail name, scale from s, unit)
NAMES = {
    "eps_sweep": ("trial-points", "trials_per_s", ("slice_p50_ms", None, 1e3, "ms")),
    "users_sweep": ("trial-points", "trials_per_s", ("slice_p50_ms", None, 1e3, "ms")),
    "instance_solves": ("instances", "instances_per_s", ("instance_p50_us", "instance_tail_us", 1e6, "us")),
    "cli_calls": ("calls", "calls_per_s", ("call_p50_ms", "call_tail_ms", 1e3, "ms")),
}


def setup_time(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, `import secnoma` plus building the
    inputs, and its ratio to the import reference run just before it."""
    reference_s = import_reference_s()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(workdir)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-600:]}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    seconds = times["import_s"] + times["build_s"]
    return seconds, seconds / reference_s


def peak_rss_mb(workload: str) -> float:
    # a CLI call runs in a child; the largest child (set-up probes included) is reported
    who = resource.RUSAGE_CHILDREN if workload == "cli_calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _row(name, value, unit, note=""):
    print(f"  {name:<52} {value:>14.6g} {unit:<6} {note}")


def end_to_end(args, work, workdir: Path) -> tuple[dict, int, int, list[str]]:
    """A warm-up, then units back to back for `--seconds`, with the set-up
    probes spread evenly over the run so that every figure covers the whole run."""
    warm = work.warm_up()
    units, setup = [], []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < args.seconds:
        if len(setup) * args.seconds / SETUP_REPEATS <= time.perf_counter() - start:
            setup.append(setup_time(args.workload, args.seed, workdir))
        units.append(work.run_unit())
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time(args.workload, args.seed, workdir))
    ops = sum(u.ops for u in units)
    busy = sum(u.busy_s for u in units)
    latencies = [x for u in units for x in u.latencies_s]
    attempted = warm.attempted + sum(u.attempted for u in units)
    failed = warm.failed + sum(u.failed for u in units)
    norm = normalised_throughput(units)
    metrics = {
        "norm_ops_per_s": (norm, "1/s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        "setup_s": (IMPORT_REF_S * median(ratio for _, ratio in setup), "s"),
    }

    op_name, rate_name, (p50_name, tail_name, scale, unit) = NAMES[args.workload]
    pieces = len(units[0].ratios)
    notes = {
        "norm_ops_per_s": f"{units[0].ops} {op_name} in {pieces} pieces, medians of {len(units)} repetitions",
        "peak_rss_mb": "largest child" if args.workload == "cli_calls" else "this process",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    print(f"end-to-end metrics, normalised to reference times of {REF_S} s (kernel) and {IMPORT_REF_S} s (imports):")
    for name, (value, metric_unit) in metrics.items():
        _row(name, value, metric_unit, notes[name])
    print("as measured, with request latency (printed, no bound):")
    _row(rate_name, ops / busy, "1/s", f"{ops} {op_name} in {busy:.3f} s busy")
    _row("setup_s", median(seconds for seconds, _ in setup), "s", f"median of {len(setup)} fresh interpreters")
    _row(p50_name, median(latencies) * scale, unit, f"median of {len(latencies)} samples")
    if tail_name:
        found = tail(latencies)
        if found is None:
            print(f"  {tail_name}: too few samples for ten beyond any listed percentile")
        else:
            pct, value = found
            _row(tail_name, value * scale, unit, f"p{pct:g} of {len(latencies)} samples")
    _row("failed_frac", failed / attempted, "frac", f"{failed} of {attempted} operations")
    print("repetition busy times, s:", " ".join(f"{u.busy_s:.4f}" for u in units))
    errors = warm.errors + [e for u in units for e in u.errors]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, failed, errors


def per_layer(args, work, workdir: Path) -> tuple[dict, int, int, list[str]]:
    from perfbench import clicalls, instances, sweeps
    from perfbench.tracer import Tracer

    unit = work.traced_unit
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{time.time_ns()}")
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(unit())
        with tracer.installed([sweeps, instances]):
            traced.append(unit(tracer))
    metrics = tracer.layer_metrics(len(traced), sum(u.busy_s for u in traced))
    spans_path = OUT_DIR / f"spans-{args.workload}.npz"
    tracer.dump(spans_path)

    cli = work if args.workload == "cli_calls" else clicalls.CliCalls(args.seed, workdir)
    metrics.update(clicalls.cold_start_metrics())
    metrics.update(cli.main_us([cli.run_inprocess() for _ in range(CLI_MAIN_CYCLES)]))
    metrics["trace.overhead_frac"] = median(u.busy_s for u in traced) / median(u.busy_s for u in plain) - 1.0

    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    print(f"per-layer metrics: {len(traced)} traced and {len(plain)} untraced repetitions, "
          f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        _row(name, value, units[name])
    runs = plain + traced
    attempted = sum(u.attempted for u in runs)
    failed = sum(u.failed for u in runs)
    errors = [e for u in runs for e in u.errors]
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "secnoma" / "__init__.py").is_file():
        print(f"error: no secnoma sources under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import secnoma

    if Path(secnoma.__file__).resolve().parent != (SRC / "secnoma").resolve():
        print(f"error: secnoma imported from {secnoma.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # one core for this process and its children, so that the reference
    # kernel runs where the work it is compared with runs
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run record:", json.dumps(record))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        work = build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, errors = per_layer(args, work, workdir)
        else:
            metrics, attempted, failed, errors = end_to_end(args, work, workdir)
    for line in errors[:20]:
        print("check failed:", line)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
