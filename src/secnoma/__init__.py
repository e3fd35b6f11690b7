"""Secure-NOMA downlink design: channel sampling, secrecy outage algebra,
minimum-power and max-min-rate solvers, TDMA benchmarks, sweep tooling.

Each public name is imported from its module on first use (PEP 562), so
`import secnoma` loads no module until a name is asked for.
"""

# each module and the public names it defines
_EXPORTS = {
    "channel": (
        "ChannelRealization", "NetworkGeometry", "db_to_linear", "dbm_to_mw", "linear_to_db",
        "mw_to_dbm", "sample_realization", "sample_trial_gains", "trial_seeds",
    ),
    "experiments": ("AggregateResult", "SweepAxis", "SweepSpec", "read_results", "run_sweep", "write_results"),
    "maxmin": (
        "MaxMinSolution", "bound_triple", "check_positive_rate_feasibility", "optimal_power_ratio_user1",
        "solve_maxmin_bisection", "solve_maxmin_two_user",
    ),
    "power_min": (
        "InfeasibleReason", "InfeasibleVerdict", "PowerMinSolution", "UserSelection", "constraint_ratio",
        "select_users", "solve_min_power",
    ),
    "secrecy": (
        "PowerAllocation", "RatePair", "SecrecyRequirement", "eaves_sinr", "max_codeword_rate",
        "optimal_decoding_order", "secrecy_outage_closed_form", "secrecy_outage_for_order",
        "sinr_cross_message", "sinr_own_message",
    ),
    "tdma": (
        "MaxMinComparison", "RateRegionBoundary", "TdmaMaxMin", "TdmaMinPower", "TimeAllocation",
        "compare_maxmin", "noma_rate_region_boundary", "tdma_maxmin", "tdma_min_power", "tdma_user_rate",
    ),
}
# a module's own name maps to the module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    # cached, so the next lookup is an ordinary global
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
