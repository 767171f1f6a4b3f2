"""Utility kernels for raw transfer measurements (Tables 2, 7 and 8).

The paper measures "the time necessary to transfer sequences of values
to/from external memory" independent of any computation.  These kernels
give the dock something to talk to:

* :class:`SinkKernel` — absorbs the write channel (write sequences);
* :class:`CounterSourceKernel` — produces a deterministic word stream on
  demand (read sequences); and
* :class:`LoopbackKernel` — echoes every input word (interleaved
  write/read sequences), optionally through a model pipeline delay.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .base import BaseKernel

REG_COUNT = 0x0


class SinkKernel(BaseKernel):
    """Swallows all input; counts words."""

    name = "sink"
    SLICES_32 = 36
    PIPELINE_DEPTH = 1

    def __init__(self) -> None:
        super().__init__()
        self.words = 0
        self.last = 0

    def reset(self) -> None:
        super().reset()
        self.words = 0
        self.last = 0

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        self.words += 1
        self.last = value

    def consume_block(self, values: np.ndarray, width_bits: int, offset: int = 0) -> np.ndarray:
        self.words += len(values)
        if len(values):
            self.last = int(values[-1])
        return self.produce_array()

    def read_register(self, offset: int) -> int:
        if offset == REG_COUNT:
            return self.words
        return self.last


class CounterSourceKernel(BaseKernel):
    """Produces word ``seed + n`` for the n-th output requested."""

    name = "source"
    SLICES_32 = 42
    PIPELINE_DEPTH = 1

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._n = 0

    def reset(self) -> None:
        super().reset()
        self._n = 0

    def _refuse(self, *_write) -> None:
        raise KernelError(f"{self.name} has no write channel")

    _absorb = _control = _refuse

    def generate(self, count: int, width_bits: int = 64) -> None:
        """Queue ``count`` output words (the dock collects them)."""
        if count <= 0:
            return
        mask = (1 << width_bits) - 1
        start = (self.seed + self._n) & ((1 << 64) - 1)
        values = (np.uint64(start) + np.arange(count, dtype=np.uint64)) & np.uint64(mask)
        self._emit_block(values)
        self._n += count

    def read_register(self, offset: int) -> int:
        value = (self.seed + self._n) & 0xFFFFFFFF
        self._n += 1
        return value


class LoopbackKernel(BaseKernel):
    """Echoes each input word after an optional pipeline delay."""

    name = "loopback"
    SLICES_32 = 58

    def __init__(self, pipeline_depth: int = 1) -> None:
        super().__init__()
        if pipeline_depth < 1:
            raise KernelError("pipeline depth must be at least 1")
        self.PIPELINE_DEPTH = pipeline_depth
        self._pipe: list[int] = []
        self.words = 0

    def reset(self) -> None:
        super().reset()
        self._pipe.clear()
        self.words = 0

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        self.words += 1
        self._pipe.append(value)
        if len(self._pipe) >= self.PIPELINE_DEPTH:
            self._emit(self._pipe.pop(0))

    def consume_block(self, values: np.ndarray, width_bits: int, offset: int = 0) -> np.ndarray:
        self.words += len(values)
        pending = self.produce_array()  # anything emitted before this block
        if self._pipe:
            combined = np.concatenate([np.array(self._pipe, dtype=np.uint64), values])
        else:
            combined = values
        keep = self.PIPELINE_DEPTH - 1
        if keep == 0:
            self._pipe = []
            out = combined
        elif len(combined) <= keep:
            self._pipe = [int(v) for v in combined]
            out = np.empty(0, dtype=np.uint64)
        else:
            self._pipe = [int(v) for v in combined[len(combined) - keep :]]
            out = combined[: len(combined) - keep]
        if len(pending):
            out = np.concatenate([pending, out])
        return out

    def flush(self, width_bits: int = 32) -> None:
        """Drain the pipeline (end of a sequence)."""
        while self._pipe:
            self._emit(self._pipe.pop(0))

    def read_register(self, offset: int) -> int:
        if offset == REG_COUNT:
            return self.words
        return 0
