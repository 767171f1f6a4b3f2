"""Raw data-transfer measurements (Tables 2, 7 and 8).

Measures the average time per transfer between external memory and the
dynamic region for the three sequence types the paper uses:

* **write** — memory -> dynamic region,
* **read** — dynamic region -> memory,
* **write/read** — interleaved in both directions.

Two methods exist: CPU-controlled programmed I/O (both systems; note that
every such transfer moves data *twice* over the bus — origin -> CPU, then
CPU -> destination) and scatter-gather DMA with the output FIFO (64-bit
system only; the interleaved variant is block-interleaved: the write
stream pauses while the full FIFO drains to memory).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dock.dma import Descriptor
from ..dock.plb_dock import REG_STATUS, STATUS_DMA_BUSY, PlbDock
from ..errors import TransferError
from ..kernels.streams import CounterSourceKernel, LoopbackKernel, SinkKernel
from ..sw.costmodel import charge_word_reads, charge_word_writes
from . import memmap
from .system import System

#: Loop bookkeeping per PIO transfer (pointer, count, branch).
PIO_LOOP_CYCLES = 4


@dataclass
class TransferResult:
    """Average per-transfer time of one measured sequence."""

    label: str
    transfers: int
    word_bits: int
    total_ps: int

    @property
    def per_transfer_ns(self) -> float:
        return self.total_ps / self.transfers / 1000.0

    @property
    def bandwidth_mbps(self) -> float:
        """Payload bandwidth in MB/s."""
        bytes_moved = self.transfers * self.word_bits // 8
        return bytes_moved / (self.total_ps / 1e12) / 1e6


@dataclass
class OverlapResult:
    """Outcome of a DMA transfer overlapped with CPU computation."""

    total_ps: int
    dma_ps: int
    compute_ps: int
    #: Time the same work would take run back to back.
    sequential_ps: int
    polls: int = 0

    @property
    def overlap_efficiency(self) -> float:
        """1.0 = perfect hiding of the shorter activity behind the longer."""
        saved = self.sequential_ps - self.total_ps
        hideable = min(self.dma_ps, self.compute_ps)
        return saved / hideable if hideable else 0.0


class TransferBench:
    """Drives the three sequence types against a system's dock."""

    def __init__(self, system: System) -> None:
        self.system = system

    # -- CPU-controlled (32-bit transfers, both systems) -----------------------
    def _fresh_caches(self) -> None:
        """Invalidate the CPU caches so sequences measure cold-start state
        regardless of what ran before (as the paper's repeated measurement
        runs would)."""
        self.system.cpu.dcache.invalidate()
        self.system.cpu.icache.invalidate()

    def pio_write_sequence(self, n: int) -> TransferResult:
        """Memory -> dynamic region, ``n`` 32-bit words, program-controlled."""
        system = self.system
        self._fresh_caches()
        system.dock.attach_kernel(SinkKernel())
        cpu = system.cpu
        start = cpu.now_ps
        charge_word_reads(system, memmap.STAGE_INPUT, n)
        cpu.io_write_batch(system.dock.base, n)
        cpu.execute_cycles(PIO_LOOP_CYCLES * n)
        return TransferResult("pio-write", n, 32, cpu.now_ps - start)

    def pio_read_sequence(self, n: int) -> TransferResult:
        """Dynamic region -> memory, ``n`` 32-bit words, program-controlled."""
        system = self.system
        self._fresh_caches()
        system.dock.attach_kernel(CounterSourceKernel(seed=0x1000))
        cpu = system.cpu
        start = cpu.now_ps
        cpu.io_read_batch(system.dock.base, n)
        charge_word_writes(system, memmap.STAGE_OUTPUT, n)
        cpu.execute_cycles(PIO_LOOP_CYCLES * n)
        return TransferResult("pio-read", n, 32, cpu.now_ps - start)

    def pio_interleaved_sequence(self, n: int) -> TransferResult:
        """``n`` write+read pairs through a loopback module.

        Reported per *pair* (one value out, one value back), matching the
        paper's interleaved write/read rows.
        """
        system = self.system
        self._fresh_caches()
        kernel = LoopbackKernel(pipeline_depth=1)
        system.dock.attach_kernel(kernel)
        cpu = system.cpu
        start = cpu.now_ps
        # Dock legs: probe a few real write+read pairs, extrapolate.
        probe = min(n, 8)
        probe_start = cpu.now_ps
        for i in range(probe):
            cpu.io_write(system.dock.base, i)
            cpu.io_read(system.dock.base)
            cpu.execute_cycles(PIO_LOOP_CYCLES)
        if n > probe:
            # Extrapolate in exact integer ps: multiplying the probe total
            # before dividing carries the per-pair remainder, where
            # (total // probe) * (n - probe) would bias long sequences fast.
            cpu.now_ps += (cpu.now_ps - probe_start) * (n - probe) // probe
        # Memory legs: same accounting as the write/read sequences.
        charge_word_reads(system, memmap.STAGE_INPUT, n)
        charge_word_writes(system, memmap.STAGE_OUTPUT, n)
        return TransferResult("pio-write/read", n, 32, cpu.now_ps - start)

    # -- DMA-controlled (64-bit transfers, PLB Dock only) -----------------------
    def _require_plb_dock(self) -> PlbDock:
        if not isinstance(self.system.dock, PlbDock):
            raise TransferError(
                f"{self.system.name}: DMA transfers need the PLB Dock "
                "(the 32-bit system supports only CPU-controlled transfers)"
            )
        return self.system.dock

    def dma_write_sequence(self, n: int) -> TransferResult:
        """Memory -> dynamic region, ``n`` 64-bit words via scatter-gather DMA."""
        dock = self._require_plb_dock()
        dock.attach_kernel(SinkKernel())
        cpu = self.system.cpu
        start = cpu.now_ps
        cpu.execute_cycles(60)  # descriptor setup
        done = dock.dma_write_block(cpu.now_ps, memmap.STAGE_INPUT, n)
        cpu.take_interrupt(done)
        cpu.return_from_interrupt()
        return TransferResult("dma-write", n, 64, cpu.now_ps - start)

    def dma_read_sequence(self, n: int) -> TransferResult:
        """Dynamic region -> memory, ``n`` 64-bit words via DMA from the FIFO."""
        dock = self._require_plb_dock()
        source = CounterSourceKernel(seed=0x2000)
        dock.attach_kernel(source)
        cpu = self.system.cpu
        start = cpu.now_ps
        remaining = n
        cursor = cpu.now_ps
        while remaining:
            chunk = min(remaining, dock.fifo.depth)
            source.generate(chunk, width_bits=64)
            dock.collect_outputs()
            cursor, _ = dock.dma_drain_fifo(cursor, memmap.STAGE_OUTPUT)
            remaining -= chunk
        cpu.take_interrupt(cursor)
        cpu.return_from_interrupt()
        return TransferResult("dma-read", n, 64, cpu.now_ps - start)

    def dma_write_overlapped(self, n: int, compute_cycles: int) -> OverlapResult:
        """DMA a block to the dock while the CPU computes.

        "Since the CPU is free during DMA transfers, it can be used for
        other purposes."  The DMA chain and the CPU's work share no
        resource, so both start at the CPU cursor and the join is closed
        form: the CPU finishes its work, then takes the DMA's completion
        interrupt (``take_interrupt`` waits for whichever ends later).
        Returns the timing breakdown including what a sequential
        (non-overlapped) execution would have cost.
        """
        dock = self._require_plb_dock()
        dock.attach_kernel(SinkKernel())
        cpu = self.system.cpu
        start = cpu.now_ps
        dma_done = dock.dma.run_chain(
            start, [Descriptor(src=memmap.STAGE_INPUT, dst=None, word_count=n)]
        )
        # Useful work is not charged to the CPU's cycle statistics.
        compute_done = start + cpu.clock.cycles_to_ps(compute_cycles)
        cpu.now_ps = compute_done
        cpu.take_interrupt(dma_done)
        cpu.return_from_interrupt()
        total = cpu.now_ps - start
        dma_ps = dma_done - start
        compute_ps = compute_done - start
        interrupt_ps = total - max(dma_ps, compute_ps)
        return OverlapResult(
            total_ps=total,
            dma_ps=dma_ps,
            compute_ps=compute_ps,
            sequential_ps=dma_ps + compute_ps + interrupt_ps,
        )

    def dma_write_polled(self, n: int, poll_gap_cycles: int = 50) -> OverlapResult:
        """DMA with completion detected by polling the STATUS register.

        The alternative the PLB Dock's interrupt generator exists to avoid:
        each poll is an uncached read of the dock's status register, and
        completion is only noticed at the next poll boundary.
        """
        dock = self._require_plb_dock()
        dock.attach_kernel(SinkKernel())
        cpu = self.system.cpu
        start = cpu.now_ps
        done = dock.dma.run_chain(
            start, [Descriptor(src=memmap.STAGE_INPUT, dst=None, word_count=n)]
        )
        dock.dma_busy_until_ps = done
        polls = 0
        status_addr = dock.base + REG_STATUS
        while True:
            status = cpu.io_read(status_addr)
            polls += 1
            if not (status & STATUS_DMA_BUSY):
                break
            cpu.execute_cycles(poll_gap_cycles)
        total = cpu.now_ps - start
        return OverlapResult(
            total_ps=total,
            dma_ps=done - start,
            compute_ps=0,
            sequential_ps=total,
            polls=polls,
        )

    def dma_interleaved_sequence(self, n: int) -> TransferResult:
        """``n`` 64-bit values out and back, block-interleaved via the FIFO.

        The write stream runs until the output FIFO fills (2047 words),
        then pauses while the FIFO is drained to memory by DMA — repeated
        until all data has moved, exactly as the paper describes.
        """
        dock = self._require_plb_dock()
        dock.attach_kernel(LoopbackKernel(pipeline_depth=1))
        cpu = self.system.cpu
        start = cpu.now_ps
        remaining = n
        src = memmap.STAGE_INPUT
        dst = memmap.STAGE_OUTPUT
        cursor = cpu.now_ps
        while remaining:
            chunk = min(remaining, dock.fifo.depth)
            cursor = dock.dma_write_block(cursor, src, chunk)
            cursor, drained = dock.dma_drain_fifo(cursor, dst)
            src += chunk * 8
            dst += drained * 8
            remaining -= chunk
        cpu.take_interrupt(cursor)
        cpu.return_from_interrupt()
        return TransferResult("dma-write/read", n, 64, cpu.now_ps - start)
