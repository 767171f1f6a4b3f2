"""Scatter-gather DMA engine of the PLB Dock.

Moves blocks between main memory and the dock without CPU intervention,
using full-width 64-bit PLB bursts — the only way either system can
actually exploit the 64-bit data path, since the CPU's load/store
instructions top out at 32 bits.

The engine is store-and-forward: each chunk is one burst read into the
engine's buffer and one burst write out of it, so a memory-to-dock word
costs two bus tenures (amortised over up to 16-beat bursts).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from ..bus.arbiter import DMA_ENGINE
from ..bus.bus import Bus
from ..bus.transaction import Op, Transaction
from ..engine.stats import StatsGroup
from ..errors import InvariantError, TransferError


@dataclass(frozen=True)
class Descriptor:
    """One scatter-gather element.

    ``src`` / ``dst`` are byte addresses; ``None`` designates the dock
    (write channel as destination, output FIFO as source).
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
        if self.src is not None and self.dst is not None and self.src == self.dst:
            raise TransferError("descriptor source and destination coincide")


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

    def _chunk(self) -> int:
        return self.bus.max_burst_beats

    def _fast_ok(self) -> bool:
        """Use the closed-form burst path?  Never when a trace hook is
        installed (only the per-chunk path emits trace events) or the fast
        path is globally disabled."""
        return self.bus.fast_path_active()

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
            if descriptor.dst is None:
                cursor = self._memory_to_dock(cursor, descriptor)
            elif descriptor.src is None:
                cursor = self._fifo_to_memory(cursor, descriptor)
            else:
                cursor = self._memory_to_memory(cursor, descriptor)
            self.stats.count("descriptors")
        return cursor

    # -- movement primitives ------------------------------------------------
    #
    # Each primitive has two implementations producing identical simulated
    # timestamps, data movement and aggregate statistics: the per-chunk
    # reference loop (ground truth, emits trace events) and a vectorized
    # variant moving the whole descriptor as NumPy blocks through
    # ``Bus.request_burst``.  The bus serialises this engine's tenures, so
    # the read->write interleaving of the reference loop and the
    # read-all-then-write-all order of the block variant sum to the same
    # completion time (every sub-tenure starts exactly when the previous
    # one ends, on a clock edge).

    def _memory_to_dock(self, cursor: int, d: Descriptor) -> int:
        if self._fast_ok():
            read = self.bus.request_burst(
                cursor, Op.READ, d.src, d.size_bytes, d.word_count, master=DMA_ENGINE
            )
            write = self.bus.request_burst(
                read.done_ps,
                Op.WRITE,
                self.dock_base,
                d.size_bytes,
                d.word_count,
                data=read.value,
                master=DMA_ENGINE,
                fixed_address=True,
            )
            self.stats.count("words_to_dock", d.word_count)
            return write.done_ps
        remaining = d.word_count
        address = d.src
        if address is None:
            raise InvariantError(f"{self.name}: memory-to-dock descriptor without a source")
        while remaining:
            chunk = min(remaining, self._chunk())
            read = self.bus.request(
                cursor,
                Transaction(op=Op.READ, address=address, size_bytes=d.size_bytes, beats=chunk),
                master=DMA_ENGINE,
            )
            values = read.value if isinstance(read.value, list) else [read.value]
            write = self.bus.request(
                read.done_ps,
                Transaction(
                    op=Op.WRITE,
                    address=self.dock_base,
                    size_bytes=d.size_bytes,
                    beats=chunk,
                    data=values,
                ),
                master=DMA_ENGINE,
            )
            cursor = write.done_ps
            address += chunk * d.size_bytes
            remaining -= chunk
            self.stats.count("words_to_dock", chunk)
        return cursor

    def _fifo_to_memory(self, cursor: int, d: Descriptor) -> int:
        if self._fast_ok():
            read = self.bus.request_burst(
                cursor,
                Op.READ,
                self.dock_base,
                d.size_bytes,
                d.word_count,
                master=DMA_ENGINE,
                fixed_address=True,
            )
            write = self.bus.request_burst(
                read.done_ps,
                Op.WRITE,
                d.dst,
                d.size_bytes,
                d.word_count,
                data=read.value,
                master=DMA_ENGINE,
            )
            self.stats.count("words_from_fifo", d.word_count)
            return write.done_ps
        remaining = d.word_count
        address = d.dst
        if address is None:
            raise InvariantError(f"{self.name}: fifo-to-memory descriptor without a destination")
        while remaining:
            chunk = min(remaining, self._chunk())
            read = self.bus.request(
                cursor,
                Transaction(op=Op.READ, address=self.dock_base, size_bytes=d.size_bytes, beats=chunk),
                master=DMA_ENGINE,
            )
            values = read.value if isinstance(read.value, list) else [read.value]
            write = self.bus.request(
                read.done_ps,
                Transaction(op=Op.WRITE, address=address, size_bytes=d.size_bytes, beats=chunk, data=values),
                master=DMA_ENGINE,
            )
            cursor = write.done_ps
            address += chunk * d.size_bytes
            remaining -= chunk
            self.stats.count("words_from_fifo", chunk)
        return cursor

    def _memory_to_memory(self, cursor: int, d: Descriptor) -> int:
        if self._fast_ok():
            read = self.bus.request_burst(
                cursor, Op.READ, d.src, d.size_bytes, d.word_count, master=DMA_ENGINE
            )
            write = self.bus.request_burst(
                read.done_ps,
                Op.WRITE,
                d.dst,
                d.size_bytes,
                d.word_count,
                data=read.value,
                master=DMA_ENGINE,
            )
            self.stats.count("words_copied", d.word_count)
            return write.done_ps
        remaining = d.word_count
        src, dst = d.src, d.dst
        if src is None or dst is None:
            raise InvariantError(f"{self.name}: memory-to-memory descriptor missing an address")
        while remaining:
            chunk = min(remaining, self._chunk())
            read = self.bus.request(
                cursor,
                Transaction(op=Op.READ, address=src, size_bytes=d.size_bytes, beats=chunk),
                master=DMA_ENGINE,
            )
            values = read.value if isinstance(read.value, list) else [read.value]
            write = self.bus.request(
                read.done_ps,
                Transaction(op=Op.WRITE, address=dst, size_bytes=d.size_bytes, beats=chunk, data=values),
                master=DMA_ENGINE,
            )
            cursor = write.done_ps
            src += chunk * d.size_bytes
            dst += chunk * d.size_bytes
            remaining -= chunk
            self.stats.count("words_copied", chunk)
        return cursor
