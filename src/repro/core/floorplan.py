"""Figure rendering: the paper's four figures as ASCII diagrams.

Figures 1, 3 and 4 are architecture/floorplan drawings; figure 2 shows the
LUT-based bus-macro idea.  The renderers are pure functions over the system
models, so the diagrams always reflect the code's actual topology (the
benchmark harness prints them for the figure-reproduction targets).
"""

from __future__ import annotations

from typing import List

from ..bitstream.busmacro import BusMacro
from .system import System


def render_generic_architecture() -> str:
    """Figure 1: the generic system organisation of section 2.1."""
    rows = [
        "+--------------------------------------------------------------+",
        "|                        platform FPGA                         |",
        "|  +-------+   +----------------+   +-----------------------+  |",
        "|  |  CPU  |===|  on-chip bus   |===|  memory interface     |  |",
        "|  +-------+   |  system        |   |  unit (int/ext mem)   |  |",
        "|              |                |   +-----------------------+  |",
        "|              |                |   +-----------------------+  |",
        "|              |                |===|  configuration        |  |",
        "|              |                |   |  control unit (ICAP)  |  |",
        "|              |                |   +-----------------------+  |",
        "|              |                |   +-----------------------+  |",
        "|              |                |===|  external comm. unit  |  |",
        "|              |                |   +-----------------------+  |",
        "|              |                |   +-----------+ +--------+   |",
        "|              |                |===| dynamic   |>| dynamic|   |",
        "|              +----------------+   | area comm.| |  area  |   |",
        "|                                   | unit      |<| (PR)   |   |",
        "|                                   +-----------+ +--------+   |",
        "+--------------------------------------------------------------+",
    ]
    return "\n".join(rows)


def render_bus_macro(macro: BusMacro) -> str:
    """Figure 2: a LUT-based bus macro between components A and B."""
    rows = [
        f"bus macro {macro.name!r}: {macro.kind.value}, {macro.width} signals,",
        f"{macro.slices_per_side} slices/side, rows {macro.row_offset}.."
        f"{macro.row_offset + macro.rows_spanned - 1}",
        "",
        "   component A          boundary          component B",
        "  ...----------+     (fixed LUTs)     +----------...",
    ]
    shown = min(macro.width, 4)
    for bit in range(shown):
        rows.append(f"     In({bit}) >---[LUT]--------------[LUT]---> Out({bit})")
    if macro.width > shown:
        rows.append(f"       ... {macro.width - shown} more signals ...")
    rows.append("  ...----------+                      +----------...")
    rows.append("")
    rows.append("A and B are designed separately; only the LUT positions are shared.")
    return "\n".join(rows)


def render_system_floorplan(system: System) -> str:
    """Figures 3/4: module layout of a concrete system (roughly to scale)."""
    device = system.device
    region = system.region.rect
    width = 64
    rows: List[str] = []
    rows.append(f"{system.name} on {device.name} "
                f"({device.clb_cols}x{device.clb_rows} CLBs, {device.slice_count} slices)")
    rows.append(f"clocks: CPU {system.cpu_clock.freq_mhz:g} MHz, "
                f"PLB/OPB {system.plb.clock.freq_mhz:g}/{system.opb.clock.freq_mhz:g} MHz")
    rows.append("=" * width)
    cpu_note = f"PPC405 x{device.cpu_count}"
    rows.append(f"| {cpu_note:<28}|  JTAGPPC | reset |".ljust(width - 1) + "|")
    rows.append("|" + "-" * (width - 2) + "|")
    plb_modules = [m.name for m in system.modules if m.bus == "plb"]
    opb_modules = [m.name for m in system.modules if m.bus == "opb"]
    rows.append(("| PLB (64-bit): " + ", ".join(plb_modules))[: width - 1].ljust(width - 1) + "|")
    rows.append(("| OPB (32-bit): " + ", ".join(opb_modules))[: width - 1].ljust(width - 1) + "|")
    rows.append("|" + "-" * (width - 2) + "|")
    dyn = (
        f"| DYNAMIC AREA {region.width}x{region.height} CLB @({region.col},{region.row}) "
        f"{system.region.resources.slices} slices, "
        f"{system.region.resources.bram_blocks} BRAM"
    )
    rows.append(dyn[: width - 1].ljust(width - 1) + "|")
    dock_name = type(system.dock).__name__
    rows.append(f"|   wrapped by {dock_name} ({system.bus_width}-bit channels)".ljust(width - 1) + "|")
    rows.append("=" * width)
    return "\n".join(rows)
