"""The 64-bit system (section 4 of the paper).

XC2VP30 (-7), CPU at 300 MHz, PLB and OPB at 100 MHz.  The two main
differences from the 32-bit design: the external (DDR) memory controller
sits on the 64-bit PLB, and the dynamic region's wrapper is the **PLB
Dock** — a master/slave peripheral with a scatter-gather DMA controller,
a 2047x64-bit output FIFO and an interrupt generator.  Minor differences:
an interrupt controller appears on the OPB, and the GPIO is gone.

DDR is cacheable, so CPU code sees line-fill bursts (the only 64-bit
transfers load/store code can cause); programmatic dock transfers remain
32-bit, which is why the full bus width is only reachable through DMA.

Dynamic region: 32x24 CLBs = 768 CLBs = 3072 slices (22.4% of 13696) and
22 BRAM blocks, matching the paper exactly.
"""

from __future__ import annotations

from typing import Optional

from ..bus.bridge import PlbOpbBridge
from ..bus.opb import make_opb
from ..bus.plb import PLB_MAX_BURST_BEATS, make_plb
from ..dock.fifo import PAPER_FIFO_DEPTH
from ..dock.plb_dock import PlbDock
from ..engine.clock import ClockDomain, mhz
from ..fabric.config_memory import ConfigMemory
from ..fabric.device import XC2VP30
from ..fabric.region import find_region
from ..fabric.resources import ResourceVector
from ..mem.controllers import BramController, DdrController
from ..mem.memory import MemoryArray
from ..periph.hwicap import OpbHwIcap
from ..periph.intc import InterruptController
from ..periph.jtagppc import JtagPpc
from ..periph.reset import ResetBlock
from ..periph.uart import Uart
from . import memmap
from .system import System
from .system32 import BRIDGE_RESOURCES, OPB_INFRA, PLB_INFRA

#: Paper clock rates.
CPU_MHZ = 300
BUS_MHZ = 100

#: The paper's value of each platform axis the design-space explorer
#: varies (:func:`repro.scenarios.dse.build_dse_rig`).
PAPER_AXES = {
    "bus_mhz": BUS_MHZ,
    "bridge_cycles": PlbOpbBridge.FORWARD_CYCLES,
    "fifo_depth": PAPER_FIFO_DEPTH,
    "burst_beats": PLB_MAX_BURST_BEATS,
    "region_cols": 32,
    "region_rows": 24,
}

#: Interrupt line the PLB Dock drives.
DOCK_IRQ_SOURCE = 0


def build_system64() -> System:
    """Assemble the complete 64-bit system (figure 4)."""
    return assemble_system64("64", region_brams=22, **PAPER_AXES)


def assemble_system64(
    tag: str,
    region_brams: Optional[int],
    *,
    bus_mhz: int,
    bridge_cycles: int,
    fifo_depth: int,
    burst_beats: int,
    region_cols: int,
    region_rows: int,
) -> System:
    """The 64-bit topology with the platform axes as values.

    ``tag`` suffixes the region, bus and system names (``"64"`` gives
    ``plb64``, ``system64``); ``region_brams`` is the BRAM count the
    region placement must contain, or ``None`` for the first placement
    that fits.
    """
    device = XC2VP30
    region = find_region(
        device, region_cols, region_rows, bram_blocks=region_brams, name=f"dynamic{tag}"
    )

    cpu_clock = ClockDomain("cpu", mhz(CPU_MHZ))
    bus_clock = ClockDomain("bus", mhz(bus_mhz))
    plb = make_plb(bus_clock, name=f"plb{tag}")
    plb.max_burst_beats = burst_beats
    opb = make_opb(bus_clock, name=f"opb{tag}")

    # Memories.
    ddr = MemoryArray(memmap.DDR_SIZE, name="ext_ddr")
    bram = MemoryArray(memmap.BRAM_SIZE, name="ocm_bram")
    ddr_ctrl = DdrController(ddr, memmap.EXT_MEM_BASE, name="plb_ddr")
    bram_ctrl = BramController(bram, memmap.BRAM_BASE, name="plb_bram")

    # Peripherals.
    config_memory = ConfigMemory(device)  # replaced by System.__init__
    hwicap = OpbHwIcap(config_memory, memmap.HWICAP_BASE)
    uart = Uart(memmap.UART_BASE)
    intc = InterruptController(memmap.INTC_BASE)
    dock = PlbDock(memmap.DOCK_BASE, fifo_depth=fifo_depth)
    jtag = JtagPpc()
    reset_block = ResetBlock()

    # OPB attachments (low-rate peripherals only).
    opb.attach(hwicap, memmap.HWICAP_BASE, memmap.HWICAP_SIZE, name="opb_hwicap")
    opb.attach(uart, memmap.UART_BASE, memmap.UART_SIZE, name="opb_uart")
    opb.attach(intc, memmap.INTC_BASE, memmap.INTC_SIZE, name="opb_intc")

    # PLB attachments: DDR, BRAM, the dock, and a bridge window for the
    # OPB peripherals.
    bridge = PlbOpbBridge(plb, opb)
    # Instance-level latency (the model reads it through ``self``),
    # keeping the forward:return ratio.
    bridge.FORWARD_CYCLES = bridge_cycles
    bridge.RETURN_CYCLES = max(1, bridge_cycles // 2)
    plb.attach(ddr_ctrl, memmap.EXT_MEM_BASE, memmap.DDR_SIZE, name="plb_ddr", posted_writes=True)
    plb.attach(bram_ctrl, memmap.BRAM_BASE, memmap.BRAM_SIZE, name="plb_bram")
    plb.attach(dock, memmap.DOCK_BASE, memmap.DOCK_SIZE, name="plb_dock", posted_writes=True)
    plb.attach(
        bridge,
        memmap.BRIDGE64_IO_BASE,
        memmap.BRIDGE64_IO_SIZE,
        name="bridge[io]",
        posted_writes=True,
    )
    dock.connect_bus(plb)
    dock.connect_interrupts(intc, DOCK_IRQ_SOURCE)

    system = System(
        name=f"system{tag}",
        device=device,
        region=region,
        cpu_clock=cpu_clock,
        plb=plb,
        opb=opb,
        bridge=bridge,
        ext_mem=ddr,
        ext_mem_base=memmap.EXT_MEM_BASE,
        ext_mem_cacheable=True,
        bram_mem=bram,
        dock=dock,
        hwicap=hwicap,
        uart=uart,
        jtag=jtag,
        reset_block=reset_block,
        bus_width=64,
    )
    system.cpu.add_cacheable(memmap.EXT_MEM_BASE, memmap.DDR_SIZE, ddr)
    system.cpu.add_cacheable(memmap.BRAM_BASE, memmap.BRAM_SIZE, bram)
    system.extras["intc"] = intc
    intc.enabled = 1 << DOCK_IRQ_SOURCE

    # Table 6 inventory.
    system.add_module("PPC405 core (1 of 2)", ResourceVector(), "hard", "second core unused")
    system.add_module("JTAGPPC", jtag.RESOURCES, "hard", "debug/data channel")
    system.add_module("PLB infrastructure", PLB_INFRA, "plb", "64-bit bus + arbiter")
    system.add_module("PLB DDR controller", DdrController.RESOURCES, "plb", "512 MB external DDR")
    system.add_module("PLB BRAM controller", BramController.RESOURCES, "plb", "on-chip memory")
    system.add_module("PLB Dock", PlbDock.RESOURCES, "plb", "DMA + FIFO + interrupts")
    system.add_module("PLB-OPB bridge", BRIDGE_RESOURCES, "plb", "peripheral access")
    system.add_module("OPB infrastructure", OPB_INFRA, "opb", "32-bit bus + arbiter")
    system.add_module("OPB UART", Uart.RESOURCES, "opb", "external communication")
    system.add_module("OPB INTC", InterruptController.RESOURCES, "opb", "DMA completion IRQs")
    system.add_module("OPB HWICAP", OpbHwIcap.RESOURCES, "opb", "configuration control")
    system.add_module("Reset block", ResetBlock.RESOURCES, "-", "CPU/peripheral reset")
    system.validate()
    return system
