"""Paths, statistics and the run record shared by every workload."""
from __future__ import annotations

import math
import os
import platform
import statistics
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from .reference import REF_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"
SPECS = BENCH_DIR / "specs"
DEFAULT_SEED = 11

# percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class UnitResult:
    """One repetition of a workload's fixed unit of work.

    `busy_s` is the time spent in the program, without the output checks;
    `latencies_s` holds one entry per user-visible request inside the unit;
    `ratios` holds, for each of the unit's short pieces (the same on every
    repetition), its time over the reference kernel's (see reference.py).
    """

    busy_s: float
    ops: int
    latencies_s: list[float]
    ratios: list[float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def median(values) -> float:
    return float(statistics.median(values))


def normalised_throughput(units: list[UnitResult]) -> float:
    """Work per second at the reference speed: the unit's work over the sum,
    across its pieces, of each piece's median ratio to the reference kernel,
    in seconds of REF_S."""
    if len({u.ops for u in units}) != 1 or len({len(u.ratios) for u in units}) != 1:
        raise ValueError("repetitions of one workload must do the same work")
    piece_ratios = zip(*(u.ratios for u in units))
    return units[0].ops / (REF_S * sum(statistics.median(r) for r in piece_ratios))


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile that has at least
    TAIL_MIN_BEYOND samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, float(ordered[rank - 1])
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _secnoma_version() -> str:
    try:
        found = re.search(r'^version\s*=\s*"([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    except OSError:
        found = None
    return found.group(1) if found else "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "secnoma": _secnoma_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }
