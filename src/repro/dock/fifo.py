"""The PLB Dock's output FIFO.

Results produced by the dynamic area are buffered here before a DMA burst
moves them to main memory.  The paper's implementation stores up to
**2047 64-bit values**; block-interleaved transfers run the write channel
until the FIFO fills, then pause while it drains.

Storage is a fixed NumPy ring buffer so whole bursts move as array slice
copies (:meth:`OutputFifo.push_many` / :meth:`OutputFifo.pop_array`); the
scalar :meth:`push` / :meth:`pop` remain as thin wrappers with identical
semantics, including overflow/underflow behaviour.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

import numpy as np

from ..engine.stats import StatsGroup
from ..errors import TransferError

#: Depth of the paper's output FIFO (in 64-bit entries).
PAPER_FIFO_DEPTH = 2047


class OutputFifo:
    """Bounded FIFO of ``width_bits``-wide words (NumPy ring buffer)."""

    #: The steady-state compiler (:mod:`repro.engine.batch`) leaves this
    #: group alone: FIFO statistics are charged by the data movement
    #: itself, in the reference path and in ``bulk`` callbacks alike.
    FUNCTIONAL_STATS = True

    def __init__(self, depth: int = PAPER_FIFO_DEPTH, width_bits: int = 64, name: str = "out_fifo") -> None:
        if depth <= 0:
            raise TransferError("FIFO depth must be positive")
        if width_bits not in (32, 64):
            raise TransferError(f"unsupported FIFO width {width_bits}")
        self.depth = depth
        self.width_bits = width_bits
        self.name = name
        self._mask = (1 << width_bits) - 1
        self._np_mask = np.uint64(self._mask)
        self._buf = np.zeros(depth, dtype=np.uint64)
        self._head = 0  # index of the oldest word
        self._count = 0
        self.stats = StatsGroup(name)
        self.overflows = 0

    # -- state -------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def free(self) -> int:
        return self.depth - self._count

    @property
    def full(self) -> bool:
        return self._count >= self.depth

    @property
    def empty(self) -> bool:
        return self._count == 0

    # -- data ----------------------------------------------------------------
    def push(self, value: int) -> None:
        """Append one word; raises on overflow (and counts it — a real
        design would drop data, which is always a bug worth surfacing)."""
        if self.full:
            self.overflows += 1
            raise TransferError(f"{self.name}: overflow at depth {self.depth}")
        tail = self._head + self._count
        if tail >= self.depth:
            tail -= self.depth
        self._buf[tail] = int(value) & self._mask
        self._count += 1
        self.stats.count("pushes")

    def push_many(self, values: Union[Sequence[int], np.ndarray, Iterable[int]]) -> None:
        """Append a block of words as one ring-buffer copy.

        Matches the scalar loop exactly: on overflow the words that fit are
        kept, one overflow is counted, and :class:`TransferError` raises.
        """
        if isinstance(values, np.ndarray):
            arr = values.astype(np.uint64, copy=False)
        else:
            arr = np.fromiter((int(v) & self._mask for v in values), dtype=np.uint64)
        if self.width_bits < 64:
            arr = arr & self._np_mask
        n = int(arr.size)
        if n == 0:
            return
        overflowed = n > self.free
        accepted = min(n, self.free)
        if accepted:
            block = arr[:accepted]
            tail = self._head + self._count
            if tail >= self.depth:
                tail -= self.depth
            first = min(accepted, self.depth - tail)
            self._buf[tail : tail + first] = block[:first]
            if accepted > first:
                self._buf[: accepted - first] = block[first:]
            self._count += accepted
            self.stats.count("pushes", accepted)
        if overflowed:
            self.overflows += 1
            raise TransferError(f"{self.name}: overflow at depth {self.depth}")

    def pop(self) -> int:
        if self._count == 0:
            raise TransferError(f"{self.name}: pop from empty FIFO")
        self.stats.count("pops")
        value = int(self._buf[self._head])
        self._head += 1
        if self._head >= self.depth:
            self._head = 0
        self._count -= 1
        return value

    def pop_array(self, count: int) -> np.ndarray:
        """Remove ``count`` words as one contiguous ``uint64`` array."""
        if count > self._count:
            raise TransferError(
                f"{self.name}: requested {count} words, only {self._count} present"
            )
        if count < 0:
            raise TransferError(f"{self.name}: cannot pop {count} words")
        out = np.empty(count, dtype=np.uint64)
        first = min(count, self.depth - self._head)
        out[:first] = self._buf[self._head : self._head + first]
        if count > first:
            out[first:] = self._buf[: count - first]
        self._head += count
        if self._head >= self.depth:
            self._head -= self.depth
        self._count -= count
        if count:
            self.stats.count("pops", count)
        return out

    def pop_many(self, count: int) -> List[int]:
        return [int(v) for v in self.pop_array(count)]

    def clear(self) -> None:
        self._head = 0
        self._count = 0
