"""Developer-facing analysis tools built on the measured transfer costs."""

from .amortization import break_even_runs, break_even_table, measure_episode
from .lower_bound import (
    Assessment,
    Method,
    TaskProfile,
    TransferCosts,
    assess,
    best_method,
    hardware_lower_bound_ps,
    measure_transfer_costs,
)
from .pareto import (
    MAXIMIZE,
    MINIMIZE,
    Objective,
    crowding_distance,
    dominates,
    non_dominated_sort,
    pareto_front,
    pareto_rank,
    regression_slopes,
    render_front,
)
from .stats import (
    QUANTILES,
    percentiles_ps,
    quantile_ps,
    wilson_half_width,
    wilson_interval,
)
from .utilization import BusUtilization, UtilizationReport, profile_run

__all__ = [
    "Assessment",
    "MAXIMIZE",
    "MINIMIZE",
    "Objective",
    "crowding_distance",
    "dominates",
    "non_dominated_sort",
    "pareto_front",
    "pareto_rank",
    "regression_slopes",
    "render_front",
    "QUANTILES",
    "percentiles_ps",
    "quantile_ps",
    "wilson_half_width",
    "wilson_interval",
    "BusUtilization",
    "Method",
    "break_even_runs",
    "break_even_table",
    "measure_episode",
    "TaskProfile",
    "TransferCosts",
    "UtilizationReport",
    "assess",
    "best_method",
    "hardware_lower_bound_ps",
    "measure_transfer_costs",
    "profile_run",
]
