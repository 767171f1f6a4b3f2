"""Bitstream/placement design-rule checks (paper §3–§4 constraints).

A relocated partial bitstream is only safe when a stack of *static* rules
holds: components stay inside the dynamic region's columns (so static
logic above/below is untouched), bus macros sit at the exact edge
positions the dock's connection interface expects, and the produced
bitstream writes all — and only — the region's frames.  These pure
functions report **all** violations at once, without building anything, so
bad configurations are caught before a multi-second simulation or
reconfiguration runs.  The placement rules (BITS001–BITS005) are walked by
:func:`repro.bitstream.bitlinker.walk_placements`, which BitLinker also
runs at link time, raising on the first violation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bitstream.bitlinker import Placement, walk_placements
from ..bitstream.bitstream import Bitstream, BitstreamKind
from ..bitstream.busmacro import Port
from ..fabric.region import Region
from .diagnostics import CheckReport, Severity, register_rule

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
register_rule(
    "BITS006",
    "frame-outside-region",
    "A partial bitstream writing frames of columns outside the dynamic "
    "region reconfigures static logic at run time.",
)
register_rule(
    "BITS007",
    "bitstream-not-complete",
    "A partial bitstream that skips region frames (or is differential) is "
    "only correct if the device is in the assumed baseline state — the "
    "consistency hazard the paper describes.",
    severity=Severity.WARNING,
)
register_rule(
    "BITS008",
    "bitstream-device-mismatch",
    "A bitstream's device must match the region's device; frame addresses "
    "do not translate between parts.",
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


def check_bitstream(
    region: Region, bitstream: Bitstream, report: Optional[CheckReport] = None
) -> CheckReport:
    """DRC over a produced bitstream against its target region."""
    report = report if report is not None else CheckReport()
    obj = f"{region.name}.bitstream"
    if bitstream.device_name != region.device.name:
        report.add(
            "BITS008",
            f"bitstream targets {bitstream.device_name} but region "
            f"{region.name!r} is on {region.device.name}",
            obj=obj,
            hint="relink the components for the region's device",
        )
        return report

    allowed = set(region.frame_addresses)
    outside = [address for address, _ in bitstream.frames if address not in allowed]
    if bitstream.kind is not BitstreamKind.FULL:
        for address in outside[:8]:
            report.add(
                "BITS006",
                f"partial bitstream writes frame {address}, outside region "
                f"{region.name!r} (columns {region.rect.col}..{region.rect.col_end - 1})",
                obj=obj,
                hint="a partial bitstream must stay within the region's frame set",
            )
        if len(outside) > 8:
            report.add(
                "BITS006",
                f"... and {len(outside) - 8} more frames outside the region",
                obj=obj,
            )

    written = {address for address, _ in bitstream.frames}
    missing = [address for address in region.frame_addresses if address not in written]
    if bitstream.kind is BitstreamKind.PARTIAL_DIFFERENTIAL:
        report.add(
            "BITS007",
            f"differential bitstream ({bitstream.frame_count} of "
            f"{region.frame_count} region frames): only safe if the device is "
            "known to be in the diff's baseline state",
            obj=obj,
            hint="use a complete partial bitstream unless the loader tracks state",
        )
    elif bitstream.kind is BitstreamKind.PARTIAL_COMPLETE and missing:
        report.add(
            "BITS007",
            f"bitstream is declared partial-complete but skips {len(missing)} of "
            f"{region.frame_count} region frames (first: {missing[0]})",
            obj=obj,
            severity=Severity.ERROR,
            hint="include every region frame, or declare the stream differential",
        )
    return report
