"""Composite kernels: chained components in one dynamic-area assembly.

BitLinker exists so that "components can be reused without going through
the complete high-level design flow ... particularly helpful when multiple
similar configurations must be produced".  A :class:`CompositeKernel`
realises that functionally: a pipeline of stage kernels where each stage's
output words feed the next stage's write channel, matching an abutting
chain of components whose RIGHT/LEFT bus-macro ports BitLinker validated.

Stages keep their own register windows, stacked 0x40 apart, so a composite
looks to software like one kernel with a segmented register map.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import KernelError
from .base import BaseKernel

#: Byte offset between consecutive stages' register windows.
STAGE_WINDOW = 0x40

#: Lane -> its bitwise complement, as a ``bytes.translate`` table.
_INVERT = bytes(range(255, -1, -1))


class InvertKernel(BaseKernel):
    """Per-lane bitwise inversion (video negative) — a minimal stage."""

    name = "invert"
    SLICES_32 = 52
    PIPELINE_DEPTH = 1

    def _absorb(self, data: bytes, width_bits: int) -> None:
        self._emit_lanes(data.translate(_INVERT), width_bits)


class CompositeKernel(BaseKernel):
    """A pipeline of stage kernels behaving as one StreamingKernel."""

    WIDTH64_FACTOR = 1.4

    def __init__(self, stages: Sequence[BaseKernel], name: str = "") -> None:
        super().__init__()
        if not stages:
            raise KernelError("composite needs at least one stage")
        self.stages: Tuple[BaseKernel, ...] = tuple(stages)
        self.name = name or "+".join(stage.name for stage in stages)
        self.PIPELINE_DEPTH = sum(stage.PIPELINE_DEPTH for stage in stages)

    # -- streaming protocol -------------------------------------------------
    def reset(self) -> None:
        super().reset()
        for stage in self.stages:
            stage.reset()

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        stage_index, stage_offset = divmod(offset, STAGE_WINDOW)
        if stage_index >= len(self.stages):
            raise KernelError(f"{self.name}: no stage at offset {offset:#x}")
        self.stages[stage_index].consume(value, width_bits, stage_offset)

    def _absorb(self, data: bytes, width_bits: int) -> None:
        # Data words flow through the whole chain.
        words = np.frombuffer(data, f"<u{width_bits >> 3}").astype(np.uint64)
        for stage in self.stages:
            words = stage.consume_block(words, width_bits)
        self._emit_block(words)

    def flush(self, width_bits: int = 32) -> None:
        """Propagate stage flushes down the chain (partial output words)."""
        words = np.empty(0, dtype=np.uint64)
        for stage in self.stages:
            # Push pending carry-through words first.
            produced = [stage.consume_block(words, width_bits)]
            stage.flush(width_bits)
            produced.append(stage.produce_array())
            words = np.concatenate(produced)
        self._emit_block(words)

    def read_register(self, offset: int) -> int:
        stage_index, stage_offset = divmod(offset, STAGE_WINDOW)
        if stage_index >= len(self.stages):
            return 0
        return self.stages[stage_index].read_register(stage_offset)

    # -- physical side --------------------------------------------------------
    def slice_demand(self, bus_width: int) -> int:
        return sum(stage.slice_demand(bus_width) for stage in self.stages)
