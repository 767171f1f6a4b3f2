"""Static-analysis subsystem: model DRC + simulator-discipline lint.

Two layers share one diagnostic vocabulary (:mod:`repro.checks.diagnostics`):

* **Layer 1 — model DRC**: pure functions that validate built objects
  without simulating — component placements
  (:mod:`~repro.checks.drc_bitstream`), bus address maps and bridge
  topology (:mod:`~repro.checks.drc_bus`), and whole systems
  (:mod:`~repro.checks.drc_system`).
* **Layer 2 — codebase lint**: an AST pass enforcing the simulator's
  modelling contract on ``src/repro`` itself (:mod:`~repro.checks.lint`).

:mod:`~repro.checks.depfp` holds the package digest that keys the sweep
and rig caches; it reports no diagnostics.

Run both from the command line with ``python -m repro.checks`` or
``python -m repro check``; every rule is documented in ``docs/CHECKS.md``.
"""

from .diagnostics import CheckReport, Diagnostic, Rule, Severity, all_rules, get_rule
from .drc_bitstream import check_placements
from .drc_bus import (
    check_address_map,
    check_bridge_map,
    check_bus,
    check_bus_topology,
    check_master_binding,
)
from .drc_system import check_system
from .lint import lint_package, lint_paths, lint_source

__all__ = [
    "CheckReport",
    "Diagnostic",
    "Rule",
    "Severity",
    "all_rules",
    "check_address_map",
    "check_bridge_map",
    "check_bus",
    "check_bus_topology",
    "check_master_binding",
    "check_placements",
    "check_system",
    "get_rule",
    "lint_package",
    "lint_paths",
    "lint_source",
]
