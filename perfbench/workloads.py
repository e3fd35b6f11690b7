"""The benchmark's workloads by name."""
from __future__ import annotations

from pathlib import Path

WORKLOADS = ("eps_sweep", "users_sweep", "instance_solves", "cli_calls")


def build(name: str, seed: int, workdir: Path):
    """Make a workload's inputs; only its own module is imported."""
    if name in ("eps_sweep", "users_sweep"):
        from .sweeps import Sweeps

        return Sweeps(name, seed, workdir)
    if name == "instance_solves":
        from .instances import InstanceSolves

        return InstanceSolves(seed)
    if name == "cli_calls":
        from .clicalls import CliCalls

        return CliCalls(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
