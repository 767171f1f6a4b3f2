"""The 32-bit system (section 3 of the paper).

XC2VP7 (-6), CPU at 200 MHz, PLB and OPB at 50 MHz.  The PLB carries only
the on-chip memory controller and the PLB-OPB bridge; external SRAM,
serial port, GPIO, HWICAP and the **OPB Dock** all live on the OPB.  The
external SRAM is accessed uncached (the small OPB controller does not
support the burst transfers a cache line fill needs), so every data word
costs a full bridge + OPB round trip — the root of this system's transfer
numbers (Table 2).

Dynamic region: 28x11 CLBs = 308 CLBs = 1232 slices (25% of the device's
4928) and 6 BRAM blocks, matching the paper exactly.
"""

from __future__ import annotations

from ..bus.bridge import PlbOpbBridge
from ..bus.opb import make_opb
from ..bus.plb import make_plb
from ..dock.opb_dock import OpbDock
from ..engine.clock import ClockDomain, mhz
from ..fabric.config_memory import ConfigMemory
from ..fabric.device import XC2VP7
from ..fabric.region import find_region
from ..fabric.resources import ResourceVector
from ..mem.controllers import BramController, SramController
from ..mem.memory import MemoryArray
from ..periph.gpio import Gpio
from ..periph.hwicap import OpbHwIcap
from ..periph.jtagppc import JtagPpc
from ..periph.reset import ResetBlock
from ..periph.uart import Uart
from . import memmap
from .system import System

#: Bus infrastructure fabric costs (arbiter + address decode + pipeline).
PLB_INFRA = ResourceVector(slices=610)
OPB_INFRA = ResourceVector(slices=182)
BRIDGE_RESOURCES = ResourceVector(slices=164)

#: Paper clock rates.
CPU_MHZ = 200
BUS_MHZ = 50


def build_system32() -> System:
    """Assemble the complete 32-bit system (figure 3)."""
    device = XC2VP7
    region = find_region(device, 28, 11, bram_blocks=6, name="dynamic32")

    cpu_clock = ClockDomain("cpu", mhz(CPU_MHZ))
    bus_clock = ClockDomain("bus", mhz(BUS_MHZ))
    plb = make_plb(bus_clock, name="plb32")
    opb = make_opb(bus_clock, name="opb32")

    # Memories.
    sram = MemoryArray(memmap.SRAM_SIZE, name="ext_sram")
    bram = MemoryArray(memmap.BRAM_SIZE, name="ocm_bram")
    sram_ctrl = SramController(sram, memmap.EXT_MEM_BASE, name="opb_emc")
    bram_ctrl = BramController(bram, memmap.BRAM_BASE, name="plb_bram")

    # Peripherals (OPB side).
    config_memory = ConfigMemory(device)  # replaced by System.__init__
    hwicap = OpbHwIcap(config_memory, memmap.HWICAP_BASE)
    uart = Uart(memmap.UART_BASE)
    gpio = Gpio(memmap.GPIO_BASE)
    dock = OpbDock(memmap.DOCK_BASE)
    jtag = JtagPpc()
    reset_block = ResetBlock()

    # OPB attachments.
    opb.attach(sram_ctrl, memmap.EXT_MEM_BASE, memmap.SRAM_SIZE, name="opb_emc")
    opb.attach(dock, memmap.DOCK_BASE, memmap.DOCK_SIZE, name="opb_dock")
    opb.attach(hwicap, memmap.HWICAP_BASE, memmap.HWICAP_SIZE, name="opb_hwicap")
    opb.attach(uart, memmap.UART_BASE, memmap.UART_SIZE, name="opb_uart")
    opb.attach(gpio, memmap.GPIO_BASE, memmap.GPIO_SIZE, name="opb_gpio")

    # PLB attachments: on-chip memory + the bridge windows (posted writes —
    # the bridge buffers stores and releases the CPU early).
    bridge = PlbOpbBridge(plb, opb)
    plb.attach(bram_ctrl, memmap.BRAM_BASE, memmap.BRAM_SIZE, name="plb_bram")
    plb.attach(
        bridge, memmap.EXT_MEM_BASE, memmap.SRAM_SIZE, name="bridge[extmem]", posted_writes=True
    )
    plb.attach(
        bridge,
        memmap.BRIDGE32_IO_BASE,
        memmap.BRIDGE32_IO_SIZE,
        name="bridge[io]",
        posted_writes=True,
    )

    system = System(
        name="system32",
        device=device,
        region=region,
        cpu_clock=cpu_clock,
        plb=plb,
        opb=opb,
        bridge=bridge,
        ext_mem=sram,
        ext_mem_base=memmap.EXT_MEM_BASE,
        ext_mem_cacheable=False,
        bram_mem=bram,
        dock=dock,
        hwicap=hwicap,
        uart=uart,
        jtag=jtag,
        reset_block=reset_block,
        bus_width=32,
    )
    # On-chip BRAM is cacheable (tables, stack); external SRAM is not.
    system.cpu.add_cacheable(memmap.BRAM_BASE, memmap.BRAM_SIZE, bram)

    # Table 1 inventory.
    system.add_module("PPC405 core", ResourceVector(), "hard", "dedicated block")
    system.add_module("JTAGPPC", jtag.RESOURCES, "hard", "debug/data channel")
    system.add_module("PLB infrastructure", PLB_INFRA, "plb", "64-bit bus + arbiter")
    system.add_module("PLB BRAM controller", BramController.RESOURCES, "plb", "on-chip memory")
    system.add_module("PLB-OPB bridge", BRIDGE_RESOURCES, "plb", "store-and-forward")
    system.add_module("OPB infrastructure", OPB_INFRA, "opb", "32-bit bus + arbiter")
    system.add_module("OPB EMC (SRAM)", SramController.RESOURCES, "opb", "32 MB external SRAM")
    system.add_module("OPB UART", Uart.RESOURCES, "opb", "external communication")
    system.add_module("OPB GPIO", Gpio.RESOURCES, "opb", "LEDs / push buttons")
    system.add_module("OPB HWICAP", OpbHwIcap.RESOURCES, "opb", "configuration control")
    system.add_module("OPB Dock", OpbDock.RESOURCES, "opb", "dynamic-region wrapper")
    system.add_module("Reset block", ResetBlock.RESOURCES, "-", "CPU/peripheral reset")
    system.validate()
    return system
