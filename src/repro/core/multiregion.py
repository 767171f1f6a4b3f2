"""Multiple dynamic areas on one device.

The paper notes that the XC2VP30's remaining free slices are hard to use
because of the second CPU core, and that "alternative approaches (like
having two separate dynamic areas) may be necessary to put them to use."
This module implements that extension: :func:`build_system64_dual` builds
the 64-bit system with a second, smaller dynamic region wrapped by its own
PLB Dock, each with an independent BitLinker and (via the ``slot``
parameter of :class:`~repro.core.reconfig.ReconfigManager`) independent
run-time reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitstream.bitlinker import BitLinker
from ..fabric.region import Region, find_region
from ..dock.plb_dock import PlbDock
from ..errors import SystemConfigError
from . import memmap
from .system import System
from .system64 import build_system64

#: Address window of the secondary dock.
DOCK_B_BASE = 0x8010_0000
#: Interrupt line of the secondary dock.
DOCK_B_IRQ_SOURCE = 1

#: Footprint of the secondary region (CLBs).  The height must hold the
#: 64-bit connection interface (17 rows of bus macros); the width is capped
#: by the columns left of/right of the primary region — because frames span
#: the full device height, two independently reconfigurable regions must
#: occupy **disjoint column ranges** or each would rewrite the other's rows.
REGION_B_WIDTH = 13
REGION_B_HEIGHT = 18


@dataclass
class RegionSlot:
    """One additional dynamic area: region + dock + BitLinker."""

    name: str
    region: Region
    dock: PlbDock
    bitlinker: BitLinker


def build_system64_dual() -> tuple[System, RegionSlot]:
    """The 64-bit system with a second dynamic area.

    Returns ``(system, slot_b)``: the system's primary region/dock work
    exactly as in :func:`build_system64`; ``slot_b`` is the extra area.
    """
    system = build_system64()
    device = system.device

    # Guard the primary region's *columns* over the full device height:
    # Virtex-II Pro frames are full-height, so sharing a column would let
    # one region's complete bitstream rewrite the other's rows.
    from ..fabric.geometry import Rect

    column_guard = Rect(system.region.rect.col, 0, system.region.rect.width, device.clb_rows)
    region_b = find_region(
        device,
        REGION_B_WIDTH,
        REGION_B_HEIGHT,
        name="dynamic64b",
        avoid=[column_guard],
    )
    shared_columns = set(region_b.rect.columns) & set(system.region.rect.columns)
    if shared_columns:
        raise SystemConfigError(
            f"dynamic regions share configuration columns {sorted(shared_columns)}"
        )

    dock_b = PlbDock(DOCK_B_BASE, name="plb_dock_b")
    system.plb.attach(dock_b, DOCK_B_BASE, memmap.DOCK_SIZE, name="plb_dock_b", posted_writes=True)
    dock_b.connect_bus(system.plb)
    intc = system.extras.get("intc")
    if intc is not None:
        dock_b.connect_interrupts(intc, DOCK_B_IRQ_SOURCE)
        intc.enabled |= 1 << DOCK_B_IRQ_SOURCE

    # Clear the new region's rows in configuration memory and refresh the
    # baseline: both BitLinkers must merge against the dual-region boot
    # state.
    mask = system.config_memory.geometry.row_mask(region_b.rect.row, region_b.rect.row_end)
    for address in region_b.frame_addresses:
        frame = system.config_memory.read_frame(address)
        system.config_memory.write_frame(address, frame & ~mask)
    system.baseline = system.config_memory.snapshot()
    system.bitlinker = BitLinker(system.region, system.baseline, dock_ports=system.dock.ports)
    bitlinker_b = BitLinker(region_b, system.baseline, dock_ports=dock_b.ports)

    system.add_module("PLB Dock B", PlbDock.RESOURCES, "plb", "second dynamic area wrapper")
    system.validate()

    slot = RegionSlot(name="slot_b", region=region_b, dock=dock_b, bitlinker=bitlinker_b)
    system.extras["slot_b"] = slot
    return system, slot
