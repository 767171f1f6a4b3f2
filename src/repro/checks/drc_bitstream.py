"""Placement design-rule checks (paper §3–§4 constraints).

A relocated partial bitstream is only safe when a stack of *static* rules
holds: components stay inside the dynamic region's columns (so static
logic above/below is untouched) and bus macros sit at the exact edge
positions the dock's connection interface expects.  The rules
(BITS001–BITS005) are walked by
:func:`repro.bitstream.bitlinker.walk_placements`, which every
``BitLinker.link`` runs, raising on the first violation;
:func:`check_placements` reports **all** of them at once, without linking.

What a loaded stream may touch is enforced where it is loaded:
``verify_preserves_static`` runs on every load, clear and robust load,
and the ICAP commit rejects streams for another device and frame
addresses outside it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bitstream.bitlinker import Placement, walk_placements
from ..bitstream.busmacro import Port
from ..fabric.region import Region
from .diagnostics import CheckReport, register_rule

register_rule(
    "BITS001",
    "component-overlap",
    "Two components placed on the same CLB sites would merge their "
    "configuration bits; the assembled circuit is garbage.",
)
register_rule(
    "BITS002",
    "component-outside-region",
    "A component extending past the dynamic region's rectangle writes "
    "frames/rows owned by the static design — the paper's 'don't disturb "
    "static logic' rule.",
)
register_rule(
    "BITS003",
    "bus-macro-mismatch",
    "Connected ports must agree on macro kind, signal count, row offset, "
    "side and direction; anything else leaves signals floating or shorted.",
)
register_rule(
    "BITS004",
    "bus-macro-off-region-edge",
    "The dock's bus macros sit at the region's left edge; a component with "
    "left-edge ports placed away from column 0 cannot reach them.",
)
register_rule(
    "BITS005",
    "region-resources-exceeded",
    "The components' combined slice/BRAM/multiplier demand must fit the "
    "region, or placement and routing cannot succeed.",
)


def check_placements(
    region: Region,
    placements: Sequence[Placement],
    dock_ports: Sequence[Port] = (),
    report: Optional[CheckReport] = None,
) -> CheckReport:
    """DRC over a proposed component assembly for ``region``: every
    violation BitLinker's link-time walk finds, instead of the first."""
    report = report if report is not None else CheckReport()
    violations, _ = walk_placements(region, placements, dock_ports)
    for violation in violations:
        report.add(violation.rule, violation.message, obj=violation.obj, hint=violation.hint)
    return report
