"""Scenario registry: the paper's evaluation as named, pure functions.

Importing this package registers every table, ablation and figure
scenario.  Consumers:

* ``tests/test_paper_shapes.py`` — runs each table, ablation and figure
  scenario and asserts the paper's shape claims on its rows;
* the sweep orchestrator (:mod:`repro.sweep`) — fans the registry out
  over a process pool with content-addressed result caching;
* ``repro sweep list/run`` on the command line.
"""

from .registry import (
    Scenario,
    ScenarioError,
    all_scenarios,
    derive_seed,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario,
)
from .result import ScenarioResult, snapshot_groups, system_stats

# Importing the modules below populates the registry.
from . import ablations, dse, faults, figures, perf, serve, tables  # noqa: E402,F401  (registration side effect)

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "all_scenarios",
    "derive_seed",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario",
    "snapshot_groups",
    "system_stats",
]
