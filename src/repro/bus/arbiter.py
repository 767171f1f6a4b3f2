"""Named bus masters.

The CoreConnect buses arbitrate among up to a handful of masters (the CPU's
instruction and data ports, the PLB Dock's DMA engine, the bridge).  The
transaction-level bus serialises tenures through its busy watermark in
request order; a :class:`Master` passed to
:meth:`repro.bus.bus.Bus.request` only attributes each tenure, and the
time it waited for the bus, in the per-master statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BusError


@dataclass(frozen=True)
class Master:
    """A bus master identity.

    Lower ``priority`` values win arbitration (0 is highest, as in the
    PLB's request-priority encoding).
    """

    name: str
    priority: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 3:
            raise BusError(f"master {self.name!r}: priority must be 0..3 (PLB encoding)")


#: Conventional identities used by the systems.
CPU_DATA = Master("cpu-data", priority=0)
CPU_INSTR = Master("cpu-instr", priority=1)
DMA_ENGINE = Master("dma", priority=2)
