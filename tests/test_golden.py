"""Frozen SHA-256 digests of the seven standard study CSVs.

Each study is a file in `scripts/specs/`, run at its full trial count and
seed through `scripts/run_fig_sweeps.py`, so any drift in a solver, the
sampler, the config reader or the CSV writer shows up as a changed digest.
"""
import hashlib
import importlib.util
from pathlib import Path

import pytest

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
