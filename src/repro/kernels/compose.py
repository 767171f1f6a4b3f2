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

from typing import List, Sequence, Tuple

from ..errors import KernelError
from .base import BaseKernel

#: Byte offset between consecutive stages' register windows.
STAGE_WINDOW = 0x40


class InvertKernel(BaseKernel):
    """Per-lane bitwise inversion (video negative) — a minimal stage."""

    name = "invert"
    SLICES_32 = 52
    PIPELINE_DEPTH = 1

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        lanes = self._split_words(value, width_bits, 8)
        self._emit(self._pack_words([~lane & 0xFF for lane in lanes], 8))


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

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset != 0:
            stage_index, stage_offset = divmod(offset, STAGE_WINDOW)
            if stage_index >= len(self.stages):
                raise KernelError(f"{self.name}: no stage at offset {offset:#x}")
            self.stages[stage_index].consume(value, width_bits, stage_offset)
            return
        # Data words flow through the whole chain.
        words: List[int] = [value]
        for stage in self.stages:
            produced: List[int] = []
            for word in words:
                stage.consume(word, width_bits, 0)
                produced.extend(stage.produce())
            words = produced
        for word in words:
            self._emit(word)

    def flush(self, width_bits: int = 32) -> None:
        """Propagate stage flushes down the chain (partial output words)."""
        from .image_ops import FLUSH_OFFSET

        words: List[int] = []
        for index, stage in enumerate(self.stages):
            # Push pending carry-through words first.
            produced: List[int] = []
            for word in words:
                stage.consume(word, width_bits, 0)
                produced.extend(stage.produce())
            if hasattr(stage, "_flush") or hasattr(stage, "flush"):
                try:
                    stage.consume(0, width_bits, FLUSH_OFFSET)
                except KernelError:
                    pass
            produced.extend(stage.produce())
            words = produced
        for word in words:
            self._emit(word)

    def read_register(self, offset: int) -> int:
        stage_index, stage_offset = divmod(offset, STAGE_WINDOW)
        if stage_index >= len(self.stages):
            return 0
        return self.stages[stage_index].read_register(stage_offset)

    # -- physical side --------------------------------------------------------
    def slice_demand(self, bus_width: int) -> int:
        return sum(stage.slice_demand(bus_width) for stage in self.stages)
