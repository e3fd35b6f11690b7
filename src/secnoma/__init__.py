"""Secure-NOMA downlink design: channel sampling, secrecy outage algebra,
minimum-power and max-min-rate solvers, TDMA benchmarks, sweep tooling."""

from .channel import (
    ChannelRealization,
    NetworkGeometry,
    db_to_linear,
    dbm_to_mw,
    linear_to_db,
    mw_to_dbm,
    sample_gain_matrix,
    sample_realization,
    sample_trial_gains,
    trial_seeds,
)
from .experiments import (
    AggregateResult,
    SweepAxis,
    SweepSpec,
    read_results,
    run_sweep,
    write_results,
)
from .maxmin import (
    MaxMinSolution,
    bound_triple,
    check_positive_rate_feasibility,
    optimal_power_ratio_user1,
    solve_maxmin_bisection,
    solve_maxmin_two_user,
)
from .power_min import (
    InfeasibleReason,
    InfeasibleVerdict,
    PowerMinSolution,
    UserSelection,
    constraint_ratio,
    select_users,
    solve_min_power,
)
from .secrecy import (
    PowerAllocation,
    RatePair,
    SecrecyRequirement,
    eaves_sinr,
    max_codeword_rate,
    optimal_decoding_order,
    secrecy_outage_closed_form,
    secrecy_outage_for_order,
    sinr_cross_message,
    sinr_own_message,
)
from .tdma import (
    MaxMinComparison,
    RateRegionBoundary,
    TdmaMaxMin,
    TdmaMinPower,
    TimeAllocation,
    compare_maxmin,
    noma_rate_region_boundary,
    tdma_maxmin,
    tdma_min_power,
    tdma_user_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
