"""The package namespace: every public name resolves on first use, and the
names `__all__`, `dir()` and `import *` show are frozen."""
import importlib
import json
import subprocess
import sys

import pytest

import secnoma

PUBLIC = [
    "AggregateResult", "ChannelRealization", "InfeasibleReason", "InfeasibleVerdict", "MaxMinComparison",
    "MaxMinSolution", "NetworkGeometry", "PowerAllocation", "PowerMinSolution", "RatePair",
    "RateRegionBoundary", "SecrecyRequirement", "SweepAxis", "SweepSpec", "TdmaMaxMin", "TdmaMinPower",
    "TimeAllocation", "UserSelection", "bound_triple", "channel", "check_positive_rate_feasibility",
    "compare_maxmin", "constraint_ratio", "db_to_linear", "dbm_to_mw", "eaves_sinr", "experiments",
    "linear_to_db", "max_codeword_rate", "maxmin", "mw_to_dbm", "noma_rate_region_boundary",
    "optimal_decoding_order", "optimal_power_ratio_user1", "power_min", "read_results", "run_sweep",
    "sample_realization", "sample_trial_gains", "secrecy", "secrecy_outage_closed_form",
    "secrecy_outage_for_order", "select_users", "sinr_cross_message", "sinr_own_message",
    "solve_maxmin_bisection", "solve_maxmin_two_user", "solve_min_power", "tdma", "tdma_maxmin",
    "tdma_min_power", "tdma_user_rate", "trial_seeds", "write_results",
]
SUBMODULES = ("channel", "experiments", "maxmin", "power_min", "secrecy", "tdma")

# a fresh interpreter: the loaded modules and public names after a bare
# import, after `import *`, and the names the star import bound
_PROBE = """\
import json, sys
import secnoma

def state():
    modules = sorted(m for m in sys.modules if m.split(".")[0] == "secnoma")
    return [modules, [n for n in dir(secnoma) if not n.startswith("_")]]

before = state()
namespace = {}
exec("from secnoma import *", namespace)
print(json.dumps([secnoma.__all__, before, state(), sorted(n for n in namespace if n != "__builtins__")]))
"""


def test_public_names_are_frozen():
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names, before, after, starred = json.loads(proc.stdout)
    assert len(PUBLIC) == 54
    assert names == PUBLIC
    assert before == [["secnoma"], PUBLIC]  # a bare import loads nothing
    assert after == [sorted(["secnoma", "secnoma._lazy"] + [f"secnoma.{m}" for m in SUBMODULES]), PUBLIC]
    assert starred == PUBLIC


def test_each_name_is_its_module_attribute():
    for name in PUBLIC:
        value = getattr(secnoma, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"secnoma.{name}")
        else:
            assert value.__module__.startswith("secnoma.")
            assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(secnoma)[name] is value  # cached after the first lookup


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        secnoma.no_such_name  # noqa: B018
    assert not hasattr(secnoma, "__wrapped__")
