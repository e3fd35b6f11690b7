"""Frozen SHA-256 digests of the seven standard study CSVs, of the
single-instance designs' outputs and of the fading sweeps' rows.

Each study is a file in `scripts/specs/`, run at its full trial count and
seed through `scripts/run_fig_sweeps.py`, so any drift in a solver, the
sampler, the config reader or the CSV writer shows up as a changed digest.
"""
import enum
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from secnoma import (
    ChannelRealization,
    SecrecyRequirement,
    check_positive_rate_feasibility,
    compare_maxmin,
    select_users,
    solve_maxmin_bisection,
    solve_min_power,
    tdma_maxmin,
    tdma_min_power,
)
from secnoma.cli import _read_config
from secnoma.experiments import SweepSpec, run_sweep
from secnoma.maxmin import DEFAULT_TOL

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_fig_sweeps.py"
_spec = importlib.util.spec_from_file_location("run_fig_sweeps", _SCRIPT)
run_fig_sweeps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_fig_sweeps)

GOLDEN_SHA256 = {
    "avg_rate_vs_eps": "064e4ffd3af7678d8dc54e7679ccc9071db60246672bb8226f657aea0f12f070",
    "gain_vs_users": "568ac338721e331a3f57949697343716fc28cdbb2e58b4b9ccd02c161e834be7",
    "gain_vs_users_equal_stats": "97b90b113d4d9c4d5008f9dfa25f78b054aac43bdc1ea907a8f26205de045160",
    "power_vs_qos": "19162a20c23922e4baa97a2e278cb4e7018566f4e5ef3216ff9b3cb792ef3bb6",
    "rate_vs_budget": "59df74baea7c3fe57333e9a191bc04ed09f88c6a1b803a60589b28c6a183c781",
    "split_vs_eps_ge17": "534f8ac19c294c13dfd765d3dc38a408113cf4ac2aab7ecb1e2d8e251198985b",
    "split_vs_eps_ge20": "458ec0b43479ac6ad812cffdc0bae6004b95b58db6267a042b48de2bdd6bbd7f",
}


def test_every_standard_study_has_a_digest():
    assert set(run_fig_sweeps.study_specs()) == set(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(run_fig_sweeps.study_specs()))
def test_study_csv_matches_golden_digest(name, tmp_path):
    assert run_fig_sweeps.main(["--outdir", str(tmp_path), "--only", name]) == 0
    path = tmp_path / f"{name}.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", ["gain_vs_users_equal_stats", "power_vs_qos"])
def test_rerun_over_a_longer_stale_csv_matches_golden_digest(name, tmp_path):
    # a rerun rewrites the CSV in place: nothing of the old file may survive
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"stale,row\n" * 10_000)
    assert run_fig_sweeps.main(["--outdir", str(tmp_path), "--only", name]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


# Every single-instance design on a seeded pool of about 300 instances at
# K in {1, 2, 3, 4, 8}: a third with gains just above the stringency, a
# third with gains near the selection threshold phi * 2**q, the rest spread
# over three decades; two in five with the weakest gain at or below the
# stringency; plus equal gains, budgets whose bracket overflows and
# tolerances too fine or too coarse. Every field is recorded as float.hex
# text, every error as its type and message, and the digest of it all is
# frozen, so it pins the designs' outputs and their error order bit for bit.
# It was first recorded at commit a425cfc, before the scalar designs were
# reworked to stop redoing work. It was re-recorded when the two-user closed
# form moved to SNR terms (16 two-user compare_maxmin records moved, each by
# 1 or 2 ulps of the ceiling 2**rate), and again when the pool's powers of
# ten moved to Python floats, so that the inputs are the same on any CPU.
SINGLE_INSTANCE_SHA256 = "f3c7413e62167a89de7916ee239fa35116970da23cfc57a9ae7b5b9df1e000f7"


def _frozen_text(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_frozen_text, value)) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(map(_frozen_text, sorted(value))) + "}"
    if hasattr(type(value), "__match_args__"):
        fields = (f"{name}={_frozen_text(getattr(value, name))}" for name in type(value).__match_args__)
        return f"{type(value).__name__}({','.join(fields)})"
    if value is None or isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"no frozen text for {value!r}")


def _pow10(exponents):
    """10.0 ** x for each of an array's exponents, taken on Python floats
    through libm's pow: numpy's array power may run a SIMD loop that rounds
    otherwise on another CPU."""
    return np.array([10.0**x for x in exponents.tolist()])


def _frozen_instances():
    rng = np.random.default_rng(20160919)
    for i in range(300):
        num = int(rng.choice((1, 2, 3, 4, 8)))
        eaves = float(10.0 ** rng.uniform(-1.0, 1.0))
        eps = float(rng.uniform(0.05, 0.9))
        q = float(rng.uniform(0.05, 1.0))
        phi = eaves * math.log(1.0 / eps)
        if i % 3 == 0:
            gains = phi * (1.0 + _pow10(rng.uniform(-13.0, 0.0, num)))
        elif i % 3 == 1:
            gains = phi * 2.0**q * (1.0 + rng.uniform(-0.2, 0.2, num))
        else:
            gains = phi * _pow10(rng.uniform(0.0, 3.0, num))
        if i % 17 == 0:
            gains = np.full(num, gains[0])
        if i % 5 < 2:
            # the weakest user at or just below the stringency: no positive rate
            gains[np.argmin(gains)] = phi * (1.0 - rng.choice((0.0, 1e-12, 1e-3, 0.5)))
        budget = float(10.0 ** rng.uniform(-2.0, 3.0))
        if i % 23 == 0:
            budget = 1e308
        tol = (DEFAULT_TOL, DEFAULT_TOL, DEFAULT_TOL, 1e-4, 5.0, 1e-300)[i % 6]
        yield ChannelRealization(tuple(sorted(gains.tolist())), eaves), eps, q, budget, tol


def _frozen_record(channel, eps, q, budget, tol):
    req = SecrecyRequirement(q, eps)
    calls = (
        lambda: solve_min_power(channel, req),
        lambda: select_users(channel, req),
        lambda: tdma_min_power(channel, q, eps),
        lambda: solve_maxmin_bisection(channel, eps, budget, tol),
        lambda: compare_maxmin(channel, eps, budget),
        lambda: tdma_maxmin(channel, eps, budget, "optimal_time"),
        lambda: tdma_maxmin(channel, eps, budget, "equal_time"),
    )
    for call in calls:
        try:
            yield _frozen_text(call())
        except (ValueError, RuntimeError, OverflowError) as exc:
            yield f"{type(exc).__name__}: {exc}"


def test_single_instance_designs_are_frozen():
    digest = hashlib.sha256()
    infeasible = 0
    for channel, eps, q, budget, tol in _frozen_instances():
        infeasible += not check_positive_rate_feasibility(channel, eps)
        for line in _frozen_record(channel, eps, q, budget, tol):
            digest.update(line.encode() + b"\n")
    assert 0.3 < infeasible / 300 < 0.5
    assert digest.hexdigest() == SINGLE_INSTANCE_SHA256


# The fading sweeps' rows, every field as float.hex text: the CSVs print 12
# significant digits, so a last-bit change in a mean, a stderr or a rate
# would not show in their digests. avg_rate_vs_eps at K = 2 and 4 and
# gain_vs_K over K = 2..6, each at 500 trials on seeds 11 and 12, from the
# standard studies' spec files. The gain transform takes no SIMD-dispatched
# loop, so the digest holds on any CPU.
SWEEP_ROWS_SHA256 = "12ffca982371007ac8bb7c4da7af2e9e23114ddebb7dfa9b4502e1508ef80f29"


def _sweep_specs():
    specs = run_fig_sweeps.study_specs()
    for seed in (11, 12):
        for name, k in (("avg_rate_vs_eps", "2"), ("avg_rate_vs_eps", "4"), ("gain_vs_users", None)):
            mapping = _read_config(specs[name])
            del mapping["out"]
            mapping.update(trials="500", seed=str(seed))
            if k is not None:
                mapping["k"] = k
            yield SweepSpec.from_mapping(mapping)


def test_fading_sweep_rows_are_frozen():
    digest = hashlib.sha256()
    for spec in _sweep_specs():
        for row in run_sweep(spec):
            digest.update(_frozen_text(row).encode() + b"\n")
    assert digest.hexdigest() == SWEEP_ROWS_SHA256
