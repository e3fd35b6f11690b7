"""CLI calls: one `python -m secnoma` subprocess at a time, plus the probes
that split a call's wall time into interpreter start, imports and handler.

Most of a call is interpreter start and the numpy import; this workload is
the only one that sees the `cli` layer and start-up cost at all.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import secnoma.cli

from .common import GOLDEN, SPECS, UnitResult, child_env, median
from .reference import PieceClock

REFERENCE_FILE = GOLDEN / "cli.json"
SWEEP_SPECS = ("power_vs_qos", "rate_vs_budget", "split_vs_eps")
# references are recorded for this many geometry seeds; the benchmark seed picks one
GEOMETRY_SEEDS = 32
CALL_TIMEOUT_S = 60
PROBE_REPEATS = 5


@dataclass(frozen=True)
class Call:
    key: str
    subcommand: str
    argv: tuple[str, ...]
    csv: str | None = None


def make_calls(seed: int) -> list[Call]:
    two_users = ("--gains-db", "6.98970,10", "--eaves-db", "0")
    calls = [
        Call("min_power_feasible", "min-power", ("min-power", *two_users, "--q", "1", "--eps", "0.3678794")),
        Call(
            "min_power_infeasible",
            "min-power",
            ("min-power", "--gains-db=-3,10", "--eaves-db", "0", "--q", "1", "--eps", "0.1"),
        ),
        Call(
            f"max_min_rate_geometry_seed{seed % GEOMETRY_SEEDS}",
            "max-min-rate",
            ("max-min-rate", "--num-users", "3", "--d-user", "50", "--d-eave", "80",
             "--seed", str(seed % GEOMETRY_SEEDS), "--p-dbm", "20", "--eps", "0.3", "--json"),
        ),
        Call("compare_oma", "compare-oma", ("compare-oma", *two_users, "--p-dbm", "0", "--eps", "0.3678794")),
    ]
    for name in SWEEP_SPECS:
        argv = ("sweep", "--config", str(SPECS / f"{name}.spec"), "--out", f"{name}.csv")
        calls.append(Call(f"sweep_{name}", "sweep", argv, f"{name}.csv"))
    return calls


def run_subprocess(call: Call, workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "secnoma", *call.argv],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


class CliCalls:
    """One unit is one cycle over the calls; every call is one request and,
    in a subprocess, one piece. A subprocess cannot be traced, so the traced
    unit is the same calls in process."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.calls = make_calls(seed)
        with open(REFERENCE_FILE) as fh:
            self.reference = json.load(fh)

    def _errors(self, call: Call, code: int, stdout: str) -> list[str]:
        ref = self.reference[call.key]
        errors = []
        if code != ref["exit"]:
            errors.append(f"exit code {code}, expected {ref['exit']}")
        if stdout != ref["stdout"]:
            errors.append(f"stdout differs from the reference: {stdout[:200]!r}")
        if call.csv and _digest(self.workdir / call.csv) != ref["csv_sha256"]:
            errors.append("CSV digest differs from the reference")
        return errors

    def _cycle(self, invoke, clock=None) -> UnitResult:
        latencies = []
        errors = []
        failed = 0
        for call in self.calls:
            if call.csv:
                (self.workdir / call.csv).unlink(missing_ok=True)
            t0 = time.perf_counter()
            code, stdout = invoke(call)
            latencies.append(time.perf_counter() - t0)
            if clock is not None:
                clock.add(latencies[-1])
            call_errors = self._errors(call, code, stdout)
            failed += bool(call_errors)
            errors += [f"{call.key}: {e}" for e in call_errors]
        ratios = clock.ratios if clock is not None else []
        return UnitResult(sum(latencies), len(self.calls), latencies, ratios, len(self.calls), failed, errors)

    def run_unit(self) -> UnitResult:
        """Subprocess calls, timed from spawn to exit."""

        def invoke(call):
            proc = run_subprocess(call, self.workdir)
            return proc.returncode, proc.stdout

        return self._cycle(invoke, PieceClock())

    def run_inprocess(self, tracer=None) -> UnitResult:
        """The same calls through `secnoma.cli.main` in this process, after a
        warm import, with stdout captured."""

        def invoke(call):
            buf = io.StringIO()
            if tracer is not None:
                tracer.next_request()
            with redirect_stdout(buf):
                code = secnoma.cli.main(list(call.argv))
            return code, buf.getvalue()

        previous = os.getcwd()
        os.chdir(self.workdir)
        try:
            return self._cycle(invoke)
        finally:
            os.chdir(previous)

    warm_up = run_unit
    traced_unit = run_inprocess

    def main_us(self, cycles: list[UnitResult]) -> dict[str, float]:
        """`cli.main.<subcommand>.us`: per call, the median over cycles; per
        subcommand, the mean over its calls."""
        per_sub: dict[str, list[float]] = {}
        for i, call in enumerate(self.calls):
            per_call = median(c.latencies_s[i] for c in cycles) * 1e6
            per_sub.setdefault(call.subcommand, []).append(per_call)
        return {f"cli.main.{sub}.us": statistics.fmean(v) for sub, v in per_sub.items()}


def _wall_s(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-400:]}")
    return wall, proc


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy, secnoma without numpy) cumulative import time in ms.

    secnoma's share is the cumulative time of the top-level `secnoma*`
    entries less numpy's, so it counts the stdlib modules secnoma pulls in."""
    numpy_us = None
    secnoma_us = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|", 2)
        name = field.strip()
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(field) - len(field.lstrip()) - 1) // 2
        if name == "numpy" and numpy_us is None:
            numpy_us = float(cumulative)
        if level == 0 and name.split(".")[0] == "secnoma":
            secnoma_us += float(cumulative)
    if numpy_us is None:
        raise RuntimeError("numpy does not appear in the import-time report")
    return numpy_us / 1e3, (secnoma_us - numpy_us) / 1e3


def cold_start_metrics() -> dict[str, float]:
    """Interpreter-only start, then the numpy and secnoma imports apart."""
    interpreter = [_wall_s([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    numpy_ms, secnoma_ms = [], []
    for _ in range(PROBE_REPEATS):
        _, proc = _wall_s([sys.executable, "-X", "importtime", "-c", "import secnoma.cli"])
        n, s = parse_importtime(proc.stderr)
        numpy_ms.append(n)
        secnoma_ms.append(s)
    return {
        "cli.interpreter_ms": median(interpreter) * 1e3,
        "cli.import_numpy_ms": median(numpy_ms),
        "cli.import_secnoma_ms": median(secnoma_ms),
    }
