"""Base system: everything figure 1's generic organisation calls for.

A :class:`System` bundles the CPU, buses, memory interface units,
configuration control unit (HWICAP), external communication unit (UART),
and the dynamic-area communication unit (a dock), together with the
device's configuration memory, the dynamic region and a BitLinker bound to
the static design's baseline.

Concrete subclasses/builders live in :mod:`repro.core.system32` and
:mod:`repro.core.system64`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..bitstream.bitlinker import BitLinker
from ..bitstream.generator import initialize_static_configuration
from ..bus.bus import Bus
from ..bus.bridge import PlbOpbBridge
from ..cpu.ppc405 import Ppc405
from ..engine.clock import ClockDomain
from ..errors import SystemConfigError
from ..fabric.config_memory import ConfigMemory
from ..fabric.device import DeviceSpec
from ..fabric.region import Region
from ..fabric.resources import ResourceVector
from ..mem.memory import MemoryArray
from ..periph.hwicap import OpbHwIcap
from ..periph.jtagppc import JtagPpc
from ..periph.reset import ResetBlock
from ..periph.uart import Uart


@dataclass
class ModuleEntry:
    """One row of a resource-usage table (Tables 1 and 6)."""

    name: str
    resources: ResourceVector
    bus: str  # "plb", "opb", "hard", "-"
    note: str = ""


class System:
    """A complete platform: static design + dynamic region + toolchain."""

    def __init__(
        self,
        name: str,
        device: DeviceSpec,
        region: Region,
        cpu_clock: ClockDomain,
        plb: Bus,
        opb: Bus,
        bridge: PlbOpbBridge,
        ext_mem: MemoryArray,
        ext_mem_base: int,
        ext_mem_cacheable: bool,
        bram_mem: MemoryArray,
        dock,
        hwicap: OpbHwIcap,
        uart: Uart,
        jtag: JtagPpc,
        reset_block: ResetBlock,
        bus_width: int,
    ) -> None:
        self.name = name
        self.device = device
        self.region = region
        self.cpu_clock = cpu_clock
        self.plb = plb
        self.opb = opb
        self.bridge = bridge
        self.ext_mem = ext_mem
        self.ext_mem_base = ext_mem_base
        self.ext_mem_cacheable = ext_mem_cacheable
        self.bram_mem = bram_mem
        self.dock = dock
        self.hwicap = hwicap
        self.uart = uart
        self.jtag = jtag
        self.reset_block = reset_block
        self.bus_width = bus_width
        self.cpu = Ppc405(cpu_clock, plb)
        self.reset_block.register(self.cpu.reset)
        self._modules: List[ModuleEntry] = []
        self.extras: Dict[str, object] = {}
        #: Armed :class:`~repro.faults.plan.FaultPlan`, or None.  Arm/disarm
        #: via :mod:`repro.faults.plan`, which also wires the component hooks.
        self.fault_plan = None

        # Configuration state: boot the static design, snapshot the baseline.
        self.config_memory = ConfigMemory(device)
        initialize_static_configuration(self.config_memory, region, seed=f"static:{name}")
        self.baseline = self.config_memory.snapshot()
        self.bitlinker = BitLinker(region, self.baseline, dock_ports=dock.ports)
        self.hwicap.config_memory = self.config_memory

    # -- module inventory ---------------------------------------------------
    def add_module(self, name: str, resources: ResourceVector, bus: str, note: str = "") -> None:
        self._modules.append(ModuleEntry(name=name, resources=resources, bus=bus, note=note))

    @property
    def modules(self) -> Tuple[ModuleEntry, ...]:
        return tuple(self._modules)

    def static_resources(self) -> ResourceVector:
        """Total fabric cost of the permanent (static) circuits."""
        total = ResourceVector()
        for entry in self._modules:
            total = total + entry.resources
        return total

    def validate(self) -> None:
        """Sanity: static demand + dynamic region must fit the device."""
        static = self.static_resources()
        budget = self.device.capacity - self.region.resources
        if not static.fits_within(budget):
            raise SystemConfigError(
                f"{self.name}: static design needs {static} but only {budget} remains "
                f"outside the dynamic region"
            )

    # -- convenience --------------------------------------------------------
    @property
    def now_ps(self) -> int:
        return self.cpu.now_ps

    def region_summary(self) -> str:
        res = self.region.resources
        return (
            f"{self.region.rect.width}x{self.region.rect.height} CLBs, "
            f"{res.slices} slices ({100 * self.region.slice_fraction:.1f}% of device), "
            f"{res.bram_blocks} BRAMs"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.device.name}, CPU {self.cpu_clock.freq_mhz:g} MHz, "
            f"PLB/OPB {self.plb.clock.freq_mhz:g}/{self.opb.clock.freq_mhz:g} MHz, "
            f"{self.bus_width}-bit dock"
        )
