"""JTAGPPC block.

The dedicated block that connects the FPGA's JTAG port to the PowerPC core
for program download and debugging.  It is not a bus slave; it offers
zero-simulated-time testbench services (loading program images, reading
back memory).
"""

from __future__ import annotations

from ..engine.stats import StatsGroup
from ..fabric.resources import ResourceVector
from ..mem.memory import MemoryArray


class JtagPpc:
    """Debug access channel to CPU and memory."""

    #: The block is hard silicon; it costs no fabric.
    RESOURCES = ResourceVector(slices=0)

    def __init__(self, name: str = "jtagppc") -> None:
        self.name = name
        self.stats = StatsGroup(name)

    def download(self, memory: MemoryArray, offset: int, image: bytes) -> None:
        """Load a program image (zero simulated time, like a debugger)."""
        memory.load(offset, image)
        self.stats.count("downloads")
        self.stats.count("download_bytes", len(image))

    def readback(self, memory: MemoryArray, offset: int, length: int) -> bytes:
        """Read memory through the debug channel (zero simulated time)."""
        self.stats.count("readbacks")
        return bytes(memory.dump(offset, length))
