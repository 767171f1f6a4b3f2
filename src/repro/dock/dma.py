"""Scatter-gather DMA engine of the PLB Dock.

Moves blocks between main memory and the dock without CPU intervention,
using full-width 64-bit PLB bursts — the only way either system can
actually exploit the 64-bit data path, since the CPU's load/store
instructions top out at 32 bits.

The engine is store-and-forward: each descriptor is one burst read into
the engine's buffer and one burst write out of it, which the bus splits
into sub-bursts of up to 16 beats, so a memory-to-dock word costs two
bus tenures (amortised over its sub-burst).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from ..bus.arbiter import DMA_ENGINE
from ..bus.bus import Bus
from ..bus.transaction import Op
from ..engine.stats import StatsGroup
from ..errors import InvariantError, TransferError


@dataclass(frozen=True)
class Descriptor:
    """One scatter-gather element.

    ``src`` / ``dst`` are byte addresses; ``None`` designates the dock
    (write channel as destination, output FIFO as source).  A
    memory-to-memory copy's two ranges must not overlap, or its result
    would depend on the order in which its sub-bursts are read and written.
    """

    src: Optional[int]
    dst: Optional[int]
    word_count: int
    size_bytes: int = 8

    def __post_init__(self) -> None:
        if self.word_count <= 0:
            raise TransferError("descriptor must move at least one word")
        if self.src is None and self.dst is None:
            raise TransferError("descriptor cannot be dock-to-dock")
        if self.src is not None and self.dst is not None:
            length = self.word_count * self.size_bytes
            if self.src < self.dst + length and self.dst < self.src + length:
                raise TransferError("descriptor source and destination ranges overlap")


class SgDmaEngine:
    """Burst-mover attached to one bus and one dock."""

    #: Engine cycles to fetch/decode one descriptor.
    DESCRIPTOR_FETCH_CYCLES = 4

    def __init__(self, bus: Bus, dock_base: int, name: str = "sgdma") -> None:
        self.bus = bus
        self.dock_base = dock_base
        self.name = name
        self.stats = StatsGroup(name)
        #: Armed :class:`~repro.faults.plan.FaultPlan`, or None (no cost).
        self.fault_plan = None

    @property
    def bus(self) -> Bus:
        """The bus this engine masters, held weakly: the bus decodes the dock
        that owns this engine, so a strong reference would close a cycle
        and keep a dead rig alive until the next cyclic collection."""
        return self._bus()

    @bus.setter
    def bus(self, bus: Bus) -> None:
        self._bus = weakref.ref(bus)

    def _check_descriptor_fault(self) -> None:
        plan = self.fault_plan
        if plan is not None and plan.take_dma_fault(self.name):
            self.stats.count("descriptor_faults")
            raise TransferError(f"{self.name}: injected transfer error on descriptor")

    def run_chain(self, when_ps: int, descriptors: Sequence[Descriptor]) -> int:
        """Execute a descriptor chain starting at ``when_ps``.

        Returns the completion time.  Data moves for real: memory reads
        feed the dock's write channel (and thus the kernel); FIFO drains
        land in memory.
        """
        cursor = when_ps
        for descriptor in descriptors:
            self._check_descriptor_fault()
            cursor += self.bus.clock.cycles_to_ps(self.DESCRIPTOR_FETCH_CYCLES)
            cursor = self._move(cursor, descriptor)
            self.stats.count("descriptors")
        return cursor

    def _move(self, cursor: int, d: Descriptor) -> int:
        """Store-and-forward one descriptor: one burst read into the
        engine's buffer, then one burst write out of it.

        The dock side (``None``) stays at the data window; memory addresses
        walk upward.  The bus serialises this engine's tenures and every
        sub-tenure starts on the clock edge the previous one ends on, so
        reading the whole descriptor before writing it completes at the
        same time as alternating read and write per sub-burst
        (``tests/oracles/dma.py`` keeps that loop as the reference).
        """
        if d.src is None and d.dst is None:
            raise InvariantError(f"{self.name}: descriptor has neither a source nor a destination")
        read = self.bus.request_burst(
            cursor,
            Op.READ,
            self.dock_base if d.src is None else d.src,
            d.size_bytes,
            d.word_count,
            master=DMA_ENGINE,
            fixed_address=d.src is None,
        )
        write = self.bus.request_burst(
            read.done_ps,
            Op.WRITE,
            self.dock_base if d.dst is None else d.dst,
            d.size_bytes,
            d.word_count,
            data=read.value,
            master=DMA_ENGINE,
            fixed_address=d.dst is None,
        )
        if d.dst is None:
            self.stats.count("words_to_dock", d.word_count)
        elif d.src is None:
            self.stats.count("words_from_fifo", d.word_count)
        else:
            self.stats.count("words_copied", d.word_count)
        return write.done_ps
