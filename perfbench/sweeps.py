"""Fading sweeps: the standard averaged studies, run through `run_sweep` and
`write_results` exactly as the study script runs them.

`eps_sweep` reuses each sampled channel across its nine outage points, so its
time goes to the solvers. `users_sweep` draws afresh for every user count and
its equal-statistics study is almost never feasible, so its time goes to the
fading sampler.

A study at its standard 5000 trials takes seconds, too long a piece to time
steadily on a shared machine. So the standard studies run once per run as a
checked warm-up (and as the traced unit), and the timed unit is a cycle of
slices: the same studies at 500 trials on eight seeds drawn from the
benchmark seed, each slice one piece between two runs of the reference
kernel.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from secnoma import SweepAxis, SweepSpec, run_sweep, write_results

from .common import DEFAULT_SEED, GOLDEN, UnitResult
from .reference import PieceClock

TRIALS = 5000
SLICE_TRIALS = 500
SLICES = 8
BISECTION_TOL = 1e-10  # the sweep runners' default
_GEOMETRY = {"d_eave": 80.0, "alpha": 4.0, "noise_dbm": -70.0, "p_dbm": 20.0}

# the standard studies; at the default seed these are the study script's specs
STUDIES = {
    "avg_rate_vs_eps": ("avg_rate_vs_eps", SweepAxis("eps", 0.05, 0.45, 9), {"k": 2, "d_user": 50.0}),
    "gain_vs_users": ("gain_vs_K", SweepAxis("k", 2, 6, 5), {"d_user": 50.0, "eps": 0.1}),
    "gain_vs_users_equal_stats": ("gain_vs_K", SweepAxis("k", 2, 4, 3), {"d_user": 80.0, "eps": 0.1}),
}
WORKLOAD_STUDIES = {
    "eps_sweep": ("avg_rate_vs_eps",),
    "users_sweep": ("gain_vs_users", "gain_vs_users_equal_stats"),
}
DIGESTS_FILE = GOLDEN / "sweep_digests.json"


def study_spec(name: str, seed: int, trials: int = TRIALS) -> SweepSpec:
    kind, axis, fixed = STUDIES[name]
    return SweepSpec(kind, axis, {**fixed, **_GEOMETRY}, trials, seed)


def slice_seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, SLICES]).generate_state(SLICES)]


def invariant_errors(data: bytes) -> list[str]:
    """Per axis point: noma >= tdma_opt >= tdma_eq on the average rate, and
    every feasible fraction in [0, 1]. Parsed without the package's reader."""
    errors = []
    rates: dict[str, dict[str, float]] = {}
    for rec in csv.DictReader(io.StringIO(data.decode())):
        frac = float(rec["feasible_frac"])
        if not 0.0 <= frac <= 1.0:
            errors.append(f"x={rec['x']}: feasible_frac {frac} outside [0, 1]")
        if rec["metric"] == "avg_min_rate":
            rates.setdefault(rec["x"], {})[rec["scheme"]] = float(rec["value"])
    if not rates:
        errors.append("no avg_min_rate rows")
    for x, by_scheme in rates.items():
        noma, opt, eq = (by_scheme.get(s) for s in ("noma", "tdma_opt", "tdma_eq"))
        if None in (noma, opt, eq):
            errors.append(f"x={x}: missing scheme rows")
        # the bisection stops within its tolerance below the optimum
        elif not (noma >= opt - BISECTION_TOL and opt >= eq * (1.0 - 1e-12)):
            errors.append(f"x={x}: rates out of order noma={noma} tdma_opt={opt} tdma_eq={eq}")
    return errors


class Sweeps:
    """One unit is one cycle over the slices; the standard studies are the
    warm-up and the traced unit."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        names = WORKLOAD_STUDIES[workload]
        self.workdir = Path(workdir)
        self.standard = [(name, study_spec(name, seed)) for name in names]
        self.slices = [
            [(name, study_spec(name, s, SLICE_TRIALS)) for name in names] for s in slice_seeds(seed)
        ]
        self.golden = None
        if seed == DEFAULT_SEED:
            with open(DIGESTS_FILE) as fh:
                self.golden = json.load(fh)["sha256"]
        self.first: dict[tuple[int, str], bytes] = {}

    def _run(self, specs, tracer=None) -> float:
        t0 = time.perf_counter()
        for name, spec in specs:
            if tracer is not None:
                tracer.next_request()
            write_results(run_sweep(spec), self.workdir / f"{name}.csv")
        return time.perf_counter() - t0

    def _check(self, specs, key: int, golden=None) -> list[list[str]]:
        """Errors per study: the invariants, the same bytes as this run's first
        repetition of the same specs and, when given, the golden digests."""
        errors = []
        for name, _ in specs:
            data = (self.workdir / f"{name}.csv").read_bytes()
            study_errors = invariant_errors(data)
            if data != self.first.setdefault((key, name), data):
                study_errors.append("CSV differs from this run's first repetition")
            if golden is not None and hashlib.sha256(data).hexdigest() != golden[name]:
                study_errors.append("CSV digest differs from the recorded golden digest")
            errors.append([f"{name}: {e}" for e in study_errors])
        return errors

    @staticmethod
    def _result(pieces, ratios, ops, per_study) -> UnitResult:
        failed = sum(bool(e) for e in per_study)
        errors = [e for es in per_study for e in es]
        return UnitResult(sum(pieces), ops, pieces, ratios, len(per_study), failed, errors)

    def run_standard(self, tracer=None) -> UnitResult:
        """The standard studies at 5000 trials, CSVs included."""
        busy = self._run(self.standard, tracer)
        ops = sum(spec.trials * spec.axis.steps for _, spec in self.standard)
        return self._result([busy], [], ops, self._check(self.standard, -1, self.golden))

    warm_up = run_standard
    traced_unit = run_standard

    def run_unit(self) -> UnitResult:
        pieces, per_study = [], []
        clock = PieceClock()
        for i, specs in enumerate(self.slices):
            pieces.append(self._run(specs))
            clock.add(pieces[-1])
            per_study += self._check(specs, i)
        ops = sum(spec.trials * spec.axis.steps for specs in self.slices for _, spec in specs)
        return self._result(pieces, clock.ratios, ops, per_study)
