"""PLB Dock: the 64-bit system's dynamic-region wrapper.

A PLB **master/slave** peripheral.  Beyond the OPB Dock's address decoding
and data latching it adds the three capabilities the paper lists:

1. a scatter-gather **DMA controller** (:class:`repro.dock.dma.SgDmaEngine`)
   for direct memory <-> dock transfers without CPU intervention;
2. an **output FIFO** (2047 x 64 bit) buffering the dynamic area's results
   for subsequent DMA transfer to memory;
3. an **interrupt generator** so the CPU need not poll transfer status.

Register map (byte offsets inside the dock window):

========  =============================================
0x000+    data window (write channel / read channel)
0x100     STATUS  (bit0 = DMA busy, bit1 = FIFO full)
0x104     FIFO occupancy (words)
0x110     DMA SRC address
0x118     DMA DST address
0x120     DMA LEN (64-bit words)
0x128     DMA CTRL (bit0 write-to-dock, bit1 fifo-to-memory; writing starts)
========  =============================================
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

import numpy as np

from ..bus.bus import Bus
from ..bus.transaction import Op, Transaction
from ..engine.stats import StatsGroup
from ..errors import KernelError, TransferError
from ..fabric.resources import ResourceVector
from ..periph.intc import InterruptController
from .dma import Descriptor, SgDmaEngine
from .fifo import PAPER_FIFO_DEPTH, OutputFifo
from .interface import StreamingKernel, dock_ports

REG_DATA = 0x000
REG_STATUS = 0x100
REG_FIFO_COUNT = 0x104
REG_DMA_SRC = 0x110
REG_DMA_DST = 0x118
REG_DMA_LEN = 0x120
REG_DMA_CTRL = 0x128

STATUS_DMA_BUSY = 0x1
STATUS_FIFO_FULL = 0x2

CTRL_MEM_TO_DOCK = 0x1
CTRL_FIFO_TO_MEM = 0x2

#: Size of the data window (region below the control registers).
DATA_WINDOW = 0x100


class PlbDock:
    """Wrapper module connecting the dynamic region to the PLB."""

    WIDTH_BITS = 64
    WRITE_WAIT = 0
    READ_WAIT = 1
    #: Fabric cost (Table 6 line item): larger than the OPB Dock because of
    #: the DMA controller, FIFO and interrupt generator.
    RESOURCES = ResourceVector(slices=487, bram_blocks=4)

    def __init__(
        self,
        base: int,
        fifo_depth: int = PAPER_FIFO_DEPTH,
        name: str = "plb_dock",
    ) -> None:
        self.base = base
        self.name = name
        self.stats = StatsGroup(name)
        self.kernel: Optional[StreamingKernel] = None
        self.write_latch = 0
        self.fifo = OutputFifo(depth=fifo_depth, width_bits=64, name=f"{name}.fifo")
        self._pio_output: Deque[int] = deque()
        self.dma: Optional[SgDmaEngine] = None
        self.intc: Optional[InterruptController] = None
        self.irq_source = 0
        self.dma_busy_until_ps = 0
        self._dma_src = 0
        self._dma_dst = 0
        self._dma_len = 0

    # -- wiring ----------------------------------------------------------
    def connect_bus(self, plb: Bus) -> None:
        """Give the dock its master port (creates the DMA engine)."""
        self.dma = SgDmaEngine(plb, self.base + REG_DATA, name=f"{self.name}.dma")

    def connect_interrupts(self, intc: InterruptController, source: int) -> None:
        self.intc = intc
        self.irq_source = source

    @property
    def ports(self):
        """Dock-side bus-macro ports (for BitLinker validation)."""
        return dock_ports(self.WIDTH_BITS)

    def attach_kernel(self, kernel: StreamingKernel) -> None:
        self.kernel = kernel
        self.fifo.clear()
        self._pio_output.clear()
        kernel.reset()
        self.stats.count("kernels_attached")

    def detach_kernel(self) -> None:
        self.kernel = None
        self.fifo.clear()
        self._pio_output.clear()

    def collect_outputs(self) -> int:
        """Pull spontaneously produced kernel output into the FIFO.

        Models the region-side handshake for source-style kernels; returns
        the number of words collected.
        """
        if self.kernel is None:
            return 0
        words = self.kernel.produce_array() if hasattr(self.kernel, "produce_array") else None
        if words is None:
            scalar_words = self.kernel.produce()
            self.fifo.push_many(scalar_words)
            return len(scalar_words)
        self.fifo.push_many(words)
        return len(words)

    # -- data path ---------------------------------------------------------
    def _deliver(self, value: int, width_bits: int, offset: int = 0) -> None:
        self.write_latch = value & ((1 << width_bits) - 1)
        self.stats.count("words_in")
        if self.kernel is None:
            return
        self.kernel.consume(self.write_latch, width_bits, offset)
        for word in self.kernel.produce():
            self.fifo.push(word)

    def _deliver_block(self, values: np.ndarray, width_bits: int, offset: int = 0) -> None:
        """Vectorized :meth:`_deliver`: one kernel call, one FIFO append.

        Produces the same dock/kernel/FIFO state and aggregate statistics
        as delivering the words one at a time.
        """
        n = len(values)
        if n == 0:
            return
        masked = values.astype(np.uint64, copy=False)
        if width_bits < 64:
            masked = masked & np.uint64((1 << width_bits) - 1)
        self.write_latch = int(masked[-1])
        self.stats.count("words_in", n)
        if self.kernel is None:
            return
        produced = self.kernel.consume_block(masked, width_bits, offset)
        if len(produced):
            self.fifo.push_many(produced)

    def _fetch(self, offset: int) -> int:
        self.stats.count("words_out")
        if not self.fifo.empty:
            return self.fifo.pop()
        if self._pio_output:
            return self._pio_output.popleft()
        if self.kernel is not None:
            return self.kernel.read_register(offset)
        return 0xDEADC0DE

    def _fetch_block(self, count: int, width_bits: int) -> np.ndarray:
        """Vectorized :meth:`_fetch` for the case the FIFO covers the whole
        burst (the caller checks); one ring-buffer copy."""
        self.stats.count("words_out", count)
        values = self.fifo.pop_array(count)
        if width_bits < 64:
            values = values & np.uint64((1 << width_bits) - 1)
        return values

    # -- batch-compiler functional layer ----------------------------------
    # Bulk replays of the `_deliver`/`_fetch` data paths that charge no
    # dock statistics and no time: the steady-state compiler
    # (`repro.engine.batch`) extrapolates those from its probes.  FIFO
    # statistics ARE charged (push_many/pop_array) — they belong to the
    # functional layer in both paths.

    def feed_words(self, values, width_bits: Optional[int] = None, offset: int = 0) -> None:
        """Bulk ``_deliver`` data path: latch, consume, FIFO append."""
        width = self.WIDTH_BITS if width_bits is None else width_bits
        masked = np.asarray(values).astype(np.uint64, copy=False)
        if len(masked) == 0:
            return
        if width < 64:
            masked = masked & np.uint64((1 << width) - 1)
        self.write_latch = int(masked[-1])
        if self.kernel is None:
            return
        produced = self.kernel.consume_block(masked, width, offset)
        if len(produced):
            self.fifo.push_many(produced)

    def drain_words(self, count: int, width_bits: Optional[int] = None, offset: int = 0) -> list:
        """Bulk ``_fetch`` data path: FIFO, then PIO output, then registers."""
        width = self.WIDTH_BITS if width_bits is None else width_bits
        mask = (1 << width) - 1
        out: list = []
        take = min(count, len(self.fifo))
        if take:
            out.extend(int(v) & mask for v in self.fifo.pop_array(take))
        for _ in range(count - take):
            if self._pio_output:
                out.append(self._pio_output.popleft() & mask)
            elif self.kernel is not None:
                out.append(self.kernel.read_register(offset) & mask)
            else:
                out.append(0xDEADC0DE & mask)
        return out

    # -- bus slave -----------------------------------------------------------
    def access(self, txn: Transaction, when_ps: int) -> Tuple[int, Any]:
        offset = txn.address - self.base
        if offset < DATA_WINDOW:
            return self._data_access(txn, offset)
        return self._register_access(txn, offset, when_ps)

    def _data_access(self, txn: Transaction, offset: int) -> Tuple[int, Any]:
        width = txn.size_bytes * 8
        if width > self.WIDTH_BITS:
            raise KernelError(f"{self.name}: beat wider than the dock channel")
        if txn.op is Op.WRITE:
            payload = txn.data if isinstance(txn.data, (list, tuple, np.ndarray)) else [txn.data]
            for value in payload:
                self._deliver(int(value) if value is not None else 0, width, offset)
            return self.WRITE_WAIT * txn.beats, None
        mask = (1 << width) - 1
        values = [self._fetch(offset) & mask for _ in range(txn.beats)]
        return self.READ_WAIT * txn.beats, values[0] if txn.beats == 1 else values

    def access_burst(
        self,
        op: Op,
        address: int,
        size_bytes: int,
        beats: int,
        chunk_beats: int,
        data: Any,
        when_ps: int,
    ) -> Optional[Tuple[int, int, Any]]:
        """Block variant of the data-window access for the burst fast path.

        Returns ``(wait_full_chunk, wait_tail_chunk, values)`` or ``None``
        when this burst cannot be served as one block (register window, or
        a read that would fall through to PIO-output/register sources —
        the per-beat reference path handles those).
        """
        offset = address - self.base
        if offset >= DATA_WINDOW:
            return None
        width = size_bytes * 8
        if width > self.WIDTH_BITS:
            raise KernelError(f"{self.name}: beat wider than the dock channel")
        tail = beats % chunk_beats
        if op is Op.WRITE:
            if data is None:
                block = np.zeros(beats, dtype=np.uint64)
            else:
                block = np.asarray(data).astype(np.uint64, copy=False)
            self._deliver_block(block[:beats], width, offset)
            return self.WRITE_WAIT * chunk_beats, self.WRITE_WAIT * tail, None
        if len(self.fifo) < beats:
            return None
        values = self._fetch_block(beats, width)
        return self.READ_WAIT * chunk_beats, self.READ_WAIT * tail, values

    def _register_access(self, txn: Transaction, offset: int, when_ps: int) -> Tuple[int, Any]:
        if txn.op is Op.WRITE:
            payload = txn.data if isinstance(txn.data, (list, tuple)) else [txn.data]
            value = int(payload[-1])
            if offset == REG_DMA_SRC:
                self._dma_src = value
            elif offset == REG_DMA_DST:
                self._dma_dst = value
            elif offset == REG_DMA_LEN:
                self._dma_len = value
            elif offset == REG_DMA_CTRL:
                self._start_dma(value, when_ps)
            else:
                raise TransferError(f"{self.name}: write to unknown register {offset:#x}")
            return self.WRITE_WAIT, None
        if offset == REG_STATUS:
            status = 0
            if when_ps < self.dma_busy_until_ps:
                status |= STATUS_DMA_BUSY
            if self.fifo.full:
                status |= STATUS_FIFO_FULL
            return self.READ_WAIT, status
        if offset == REG_FIFO_COUNT:
            return self.READ_WAIT, len(self.fifo)
        raise TransferError(f"{self.name}: read from unknown register {offset:#x}")

    # -- DMA control ----------------------------------------------------------
    def _start_dma(self, ctrl: int, when_ps: int) -> None:
        if self.dma is None:
            raise TransferError(f"{self.name}: DMA engine not connected to a bus")
        if self._dma_len <= 0:
            raise TransferError(f"{self.name}: DMA started with LEN=0")
        start = max(when_ps, self.dma_busy_until_ps)
        if ctrl & CTRL_MEM_TO_DOCK:
            descriptor = Descriptor(src=self._dma_src, dst=None, word_count=self._dma_len)
        elif ctrl & CTRL_FIFO_TO_MEM:
            descriptor = Descriptor(src=None, dst=self._dma_dst, word_count=self._dma_len)
        else:
            raise TransferError(f"{self.name}: DMA CTRL {ctrl:#x} selects no direction")
        done = self.dma.run_chain(start, [descriptor])
        self.dma_busy_until_ps = done
        self.stats.count("dma_runs")
        if self.intc is not None:
            self.intc.raise_irq(self.irq_source, done)

    # -- convenience for the transfer methods -----------------------------------
    def dma_write_block(self, when_ps: int, src: int, word_count: int) -> int:
        """Memory -> dock, ``word_count`` 64-bit words.  Returns done time."""
        if self.dma is None:
            raise TransferError(f"{self.name}: DMA engine not connected")
        done = self.dma.run_chain(when_ps, [Descriptor(src=src, dst=None, word_count=word_count)])
        self.dma_busy_until_ps = done
        if self.intc is not None:
            self.intc.raise_irq(self.irq_source, done)
        return done

    def dma_drain_fifo(self, when_ps: int, dst: int, word_count: Optional[int] = None) -> Tuple[int, int]:
        """Dock FIFO -> memory.  Returns (done time, words drained)."""
        if self.dma is None:
            raise TransferError(f"{self.name}: DMA engine not connected")
        count = len(self.fifo) if word_count is None else word_count
        if count == 0:
            return when_ps, 0
        done = self.dma.run_chain(when_ps, [Descriptor(src=None, dst=dst, word_count=count)])
        self.dma_busy_until_ps = done
        if self.intc is not None:
            self.intc.raise_irq(self.irq_source, done)
        return done, count
