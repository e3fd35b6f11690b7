"""Spans around secnoma's public functions, installed from outside the package.

A span is recorded wherever a function is bound in a caller's namespace: a
module of the package that imports it from another module, or a benchmark
module that calls it. Calls inside one module are not layer boundaries and
are not traced, with one exception: `select_users` re-solves through
`power_min.solve_min_power`, and those re-solves are the wasted work the
`solves_per_call` counter measures.

Spans are kept in flat arrays while the run lasts and written out once, at
the end, by `dump`.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import secnoma

# span names are "<layer>.<function>", the layer being the defining module
TRACED = (
    "channel.sample_realization",
    "channel.trial_seeds",
    "maxmin.check_positive_rate_feasibility",
    "maxmin.solve_maxmin_bisection",
    "maxmin.solve_maxmin_two_user",
    "tdma.tdma_maxmin",
    "tdma.tdma_min_power",
    "tdma.compare_maxmin",
    "power_min.solve_min_power",
    "power_min.select_users",
    "secrecy.secrecy_outage_closed_form",
    "experiments.run_sweep",
    "experiments.write_results",
)
PACKAGE_CALLERS = ("channel", "secrecy", "power_min", "maxmin", "tdma", "experiments", "cli")
INTRA_LAYER = {("power_min", "solve_min_power")}


def _written_bytes(result, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return float(os.path.getsize(path))


# counts recorded at the span's boundary, one number per span
OUTCOMES = {
    "maxmin.check_positive_rate_feasibility": lambda r, a, k: float(bool(r)),
    "maxmin.solve_maxmin_bisection": lambda r, a, k: float(getattr(r, "iterations_used", -1)),
    "power_min.solve_min_power": lambda r, a, k: float(isinstance(r, secnoma.InfeasibleVerdict)),
    "experiments.write_results": _written_bytes,
}


class Tracer:
    """In-memory span store. `request` tags every span with the request
    (study repetition, instance or CLI call) that caused it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = list(TRACED)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.outcome = array("d")
        self.request_id = 0
        self._stack = [-1]

    def next_request(self) -> None:
        self.request_id += 1

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        outcome = OUTCOMES.get(name)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.request.append(self.request_id)
            self.outcome.append(math.nan)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if outcome is not None:
                self.outcome[idx] = outcome(result, args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self, bench_modules=()):
        """Wrap every traced binding for the duration of the block."""
        callers = [(importlib.import_module(f"secnoma.{m}"), m) for m in PACKAGE_CALLERS]
        callers += [(m, None) for m in bench_modules]
        patches = []
        try:
            for module, caller_layer in callers:
                for name in TRACED:
                    layer, fname = name.split(".")
                    fn = getattr(module, fname, None)
                    if not callable(fn):
                        continue
                    if caller_layer == layer and (layer, fname) not in INTRA_LAYER:
                        continue
                    patches.append((module, fname, fn))
                    setattr(module, fname, self._wrap(name, fn))
            yield self
        finally:
            for module, fname, fn in reversed(patches):
                setattr(module, fname, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
            "outcome": np.array(self.outcome, dtype=np.float64),
        }

    def dump(self, path) -> None:
        np.savez(path, run_id=self.run_id, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, units: int, busy_s: float) -> dict[str, float]:
        """Per-layer metrics over every span. Calls are per repetition of the
        workload's unit of work (`units` were traced); shares are against
        `busy_s`, the traced repetitions' time in the program."""
        a = self.arrays()
        nid, parent, outcome = a["name_id"], a["parent"], a["outcome"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - children

        def mask(name):
            return nid == self.names.index(name)

        def calls(name):
            return float(mask(name).sum()) / units

        def mean(values, scale=1.0):
            return float(values.mean()) * scale if values.size else 0.0

        def share(name, times=dur):
            return float(times[mask(name)].sum()) / busy_s

        def per_call(name, scale):
            return mean(dur[mask(name)], scale)

        bisect = outcome[mask("maxmin.solve_maxmin_bisection")]
        select = mask("power_min.select_users")
        parent_is_select = np.zeros(len(dur), dtype=bool)
        parent_is_select[has_parent] = select[parent[has_parent]]
        resolves = mask("power_min.solve_min_power") & parent_is_select
        return {
            "channel.sample_realization.calls": calls("channel.sample_realization"),
            "channel.sample_realization.us_per_call": per_call("channel.sample_realization", 1e6),
            "channel.sample_realization.share": share("channel.sample_realization"),
            "channel.trial_seeds.ms": per_call("channel.trial_seeds", 1e3),
            "maxmin.solve_maxmin_bisection.calls": calls("maxmin.solve_maxmin_bisection"),
            "maxmin.solve_maxmin_bisection.us_per_call": per_call("maxmin.solve_maxmin_bisection", 1e6),
            "maxmin.solve_maxmin_bisection.share": share("maxmin.solve_maxmin_bisection"),
            "maxmin.solve_maxmin_bisection.iters_mean": mean(bisect[bisect >= 0]),
            "maxmin.check_positive_rate_feasibility.feasible_frac": mean(
                outcome[mask("maxmin.check_positive_rate_feasibility")]
            ),
            "maxmin.solve_maxmin_two_user.us_per_call": per_call("maxmin.solve_maxmin_two_user", 1e6),
            "tdma.tdma_maxmin.calls": calls("tdma.tdma_maxmin"),
            "tdma.tdma_maxmin.us_per_call": per_call("tdma.tdma_maxmin", 1e6),
            "tdma.tdma_maxmin.share": share("tdma.tdma_maxmin"),
            "tdma.tdma_min_power.us_per_call": per_call("tdma.tdma_min_power", 1e6),
            "tdma.compare_maxmin.us_per_call": per_call("tdma.compare_maxmin", 1e6),
            "power_min.solve_min_power.calls": calls("power_min.solve_min_power"),
            "power_min.solve_min_power.us_per_call": per_call("power_min.solve_min_power", 1e6),
            "power_min.solve_min_power.share": share("power_min.solve_min_power"),
            "power_min.solve_min_power.infeasible_frac": mean(outcome[mask("power_min.solve_min_power")]),
            "power_min.select_users.us_per_call": per_call("power_min.select_users", 1e6),
            "power_min.select_users.solves_per_call": (
                float(resolves.sum()) / float(select.sum()) if select.any() else 0.0
            ),
            "secrecy.secrecy_outage_closed_form.us_per_call": per_call(
                "secrecy.secrecy_outage_closed_form", 1e6
            ),
            "experiments.run_sweep.self_share": share("experiments.run_sweep", own),
            "experiments.write_results.ms": per_call("experiments.write_results", 1e3),
            "experiments.write_results.bytes": mean(outcome[mask("experiments.write_results")]),
        }
