"""Common machinery for hardware-kernel models.

A kernel model plays two roles:

* **Functional** — it implements :class:`repro.dock.interface.StreamingKernel`
  bit-exactly, so data pushed through a dock produces the same results as
  the software reference (tests assert this).
* **Physical** — it can emit the :class:`ComponentConfig` that BitLinker
  assembles into a partial bitstream, carrying a resource footprint that
  the fit/no-fit checks (SHA-1 vs the 32-bit system's region) rely on.

Each kernel has one datapath, :meth:`BaseKernel._absorb`, which takes the
little-endian bytes of any number of data words.  The dock's PIO write
(:meth:`~BaseKernel.consume`, one word) and its DMA or bulk feed
(:meth:`~BaseKernel.consume_block`) both reach it; writes to a control
offset go to :meth:`BaseKernel._control`, one value at a time.  The
word-at-a-time state machines these datapaths replaced are the references
the tests compare them with (``tests/oracles/kernels.py``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List

import numpy as np

from ..bitstream.component import ComponentConfig
from ..dock.interface import kernel_ports
from ..errors import KernelError
from ..fabric.resources import SLICES_PER_CLB, ResourceVector


class BaseKernel:
    """Shared output queue, write dispatch and component synthesis."""

    #: Kernel display name; subclasses override.
    name = "kernel"
    #: Slice demand of the 32-bit datapath variant.
    SLICES_32 = 100
    #: Widening factor for a 64-bit datapath (registers/muxes double-ish).
    WIDTH64_FACTOR = 1.4
    #: BRAM blocks needed (independent of width in these designs).
    BRAMS = 0
    #: MULT18 blocks needed.
    MULTS = 0
    #: Pipeline depth in region clock cycles (reported, and used by the
    #: transfer models to account for drain time).
    PIPELINE_DEPTH = 1

    def __init__(self) -> None:
        #: Output queue: int words and/or uint64 ndarray blocks, in emit order.
        self._out: Deque = deque()

    # -- StreamingKernel skeleton -------------------------------------------
    def reset(self) -> None:
        self._out.clear()

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset:
            self._control(offset, value, width_bits)
        else:
            mask = (1 << width_bits) - 1
            self._absorb((int(value) & mask).to_bytes(width_bits >> 3, "little"), width_bits)

    def consume_block(self, values: np.ndarray, width_bits: int, offset: int = 0) -> np.ndarray:
        """Consume a block of already-masked words; return the words the
        kernel emits in response, in order.

        Data words reach :meth:`_absorb` as one byte string, so the result
        and the kernel state equal those of ``consume`` on each word in
        turn followed by a drain.  Control writes are applied in order.
        """
        if offset:
            for value in values.tolist():
                self._control(offset, value, width_bits)
        elif len(values):
            self._absorb(values.astype(f"<u{width_bits >> 3}", copy=False).tobytes(), width_bits)
        return self.produce_array()

    def produce(self) -> List[int]:
        drained: List[int] = []
        for segment in self._out:
            if isinstance(segment, np.ndarray):
                drained.extend(segment.tolist())
            else:
                drained.append(segment)
        self._out.clear()
        return drained

    def produce_array(self) -> np.ndarray:
        """Drain the output queue as one ``uint64`` array (fast-path side
        of :meth:`produce`; same words in the same order)."""
        if not self._out:
            return np.empty(0, dtype=np.uint64)
        segments = [
            seg if isinstance(seg, np.ndarray) else np.array([seg], dtype=np.uint64)
            for seg in self._out
        ]
        self._out.clear()
        return segments[0] if len(segments) == 1 else np.concatenate(segments)

    def read_register(self, offset: int) -> int:
        return 0

    def flush(self, width_bits: int = 32) -> None:
        """End of a sequence: emit what the datapath still holds (none here)."""

    # -- the datapath subclasses implement ------------------------------------
    def _absorb(self, data: bytes, width_bits: int) -> None:  # pragma: no cover
        """Take the little-endian bytes of whole ``width_bits`` data words."""
        raise NotImplementedError

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        """One write to a control offset; subclasses handle theirs first."""
        raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")

    def _emit(self, word: int) -> None:
        self._out.append(word)

    def _emit_block(self, words: np.ndarray) -> None:
        """Queue a whole array of output words in one append."""
        if len(words):
            self._out.append(np.asarray(words, dtype=np.uint64))

    def _emit_lanes(self, lanes: bytes, width_bits: int) -> None:
        """Queue output bytes (a whole number of words) as little-endian words."""
        if len(lanes) == width_bits >> 3:
            self._out.append(int.from_bytes(lanes, "little"))  # one word: skip numpy
        else:
            self._emit_block(np.frombuffer(lanes, f"<u{width_bits >> 3}").astype(np.uint64))

    # -- physical side ------------------------------------------------------
    def slice_demand(self, bus_width: int) -> int:
        if bus_width == 32:
            return self.SLICES_32
        if bus_width == 64:
            return math.ceil(self.SLICES_32 * self.WIDTH64_FACTOR)
        raise KernelError(f"unsupported datapath width {bus_width}")

    def resources(self, bus_width: int) -> ResourceVector:
        return ResourceVector(
            slices=self.slice_demand(bus_width), bram_blocks=self.BRAMS, mult18=self.MULTS
        )

    def make_component(self, bus_width: int, region_height: int) -> ComponentConfig:
        """Synthesise the relocatable component for a target region height.

        Width (in CLB columns) is the smallest that holds the slice demand
        plus the component-side bus-macro cost at the given height.
        """
        ports = kernel_ports(bus_width)
        macro_slices = sum(port.macro.resource_cost().slices for port in ports)
        total_slices = self.slice_demand(bus_width) + macro_slices
        width = max(2, math.ceil(total_slices / (SLICES_PER_CLB * region_height)))
        min_rows = max(
            (port.macro.row_offset + port.macro.rows_spanned for port in ports), default=1
        )
        if region_height < min_rows:
            raise KernelError(
                f"{self.name}: region height {region_height} cannot host the "
                f"{bus_width}-bit connection interface ({min_rows} rows)"
            )
        return ComponentConfig(
            name=f"{self.name}{bus_width}",
            width=width,
            height=region_height,
            resources=self.resources(bus_width),
            ports=ports,
        )


#: Control offset: pad and emit a partially packed output word.
FLUSH_OFFSET = 0x10
#: Register: output lanes produced since reset (pixels, match positions).
REG_LANES = 0x0


class PackingKernel(BaseKernel):
    """A kernel whose results are byte lanes packed 4 (32-bit writes) or 8
    (64-bit writes) per output word: the pattern matcher's counts and the
    image kernels' pixels."""

    def __init__(self) -> None:
        super().__init__()
        self._out_width = 32
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._pending = b""
        self._lanes = 0

    def _pack_lanes(self, lanes: bytes, width_bits: int) -> None:
        """Queue result lanes; emit every output word they complete."""
        self._out_width = width_bits
        self._lanes += len(lanes)
        pending = self._pending + lanes
        full = len(pending) - len(pending) % (width_bits >> 3)
        if full:
            self._emit_lanes(pending[:full], width_bits)
        self._pending = pending[full:]

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        if offset == FLUSH_OFFSET:
            self.flush()
        else:
            super()._control(offset, value, width_bits)

    def flush(self, width_bits: int = 32) -> None:
        """Pad and emit a partially packed output word (at the width it was
        packed for)."""
        if self._pending:
            self._emit_lanes(self._pending.ljust(self._out_width >> 3, b"\0"), self._out_width)
            self._pending = b""

    def read_register(self, offset: int) -> int:
        return self._lanes if offset == REG_LANES else 0
