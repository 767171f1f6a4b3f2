"""Hardware pattern matcher for bilevel images.

The paper's first application: count how many pixels of an 8x8 pattern
match the corresponding pixels of a window sliding over a larger binary
image.  The hardware is a pipeline of eight stages, one per pattern row;
stage outputs are summed into the match count for one window position.

Streaming protocol (one 8-row image strip at a time):

* each byte of an incoming data word is one **image column** of the strip
  (bit ``i`` = row ``i``), so a 32-bit write advances the sliding window by
  four columns and a 64-bit write by eight;
* after the first seven columns (pipeline fill) every further column
  completes one window position; match counts (0..64, one byte each) are
  packed four (32-bit) or eight (64-bit) per output word;
* a write to the FLUSH control offset pads and emits any buffered counts;
* ``read_register(0)`` returns the number of positions evaluated,
  ``read_register(4)`` the running maximum count (a typical "best match"
  register).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import KernelError
from .base import FLUSH_OFFSET, REG_LANES, PackingKernel

__all__ = [
    "FLUSH_OFFSET",
    "PATTERN_HI_OFFSET",
    "PATTERN_LO_OFFSET",
    "REG_BEST",
    "REG_POSITIONS",
    "PatternMatchKernel",
    "pattern_to_columns",
]

#: Control offsets for loading the pattern (8 columns packed 4/word).
PATTERN_LO_OFFSET = 0x14
PATTERN_HI_OFFSET = 0x18

REG_POSITIONS = REG_LANES
REG_BEST = 0x4

_ALL_ONES = (1 << 64) - 1


def pattern_to_columns(pattern: np.ndarray) -> List[int]:
    """Convert an 8x8 boolean pattern to 8 column bytes (bit i = row i)."""
    arr = np.asarray(pattern)
    if arr.shape != (8, 8):
        raise KernelError(f"pattern must be 8x8, got {arr.shape}")
    arr = arr.astype(bool)
    columns = []
    for col in range(8):
        byte = 0
        for row in range(8):
            if arr[row, col]:
                byte |= 1 << row
        columns.append(byte)
    return columns


class PatternMatchKernel(PackingKernel):
    """Eight-stage pipelined 8x8 binary pattern matcher."""

    name = "patmatch"
    SLICES_32 = 430
    PIPELINE_DEPTH = 9  # 8 row stages + adder tree

    def __init__(self, pattern: np.ndarray | Sequence[int] | None = None) -> None:
        super().__init__()
        columns = [0] * 8
        if pattern is not None:
            arr = np.asarray(pattern)
            if arr.ndim == 2:
                columns = pattern_to_columns(arr)
            else:
                if len(arr) != 8:
                    raise KernelError("pattern column list must have 8 entries")
                columns = [int(b) & 0xFF for b in arr]
        #: The eight pattern columns as one little-endian word (column 0 lowest).
        self._pattern = int.from_bytes(bytes(columns), "little")

    # -- protocol -----------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        #: The last (up to) seven columns: the pipeline's fill.
        self._history = b""
        self._best = 0

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        if offset == PATTERN_LO_OFFSET:
            self._pattern = (self._pattern & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        elif offset == PATTERN_HI_OFFSET:
            self._pattern = (self._pattern & 0xFFFFFFFF) | ((value & 0xFFFFFFFF) << 32)
        else:
            super()._control(offset, value, width_bits)

    def _absorb(self, data: bytes, width_bits: int) -> None:
        columns = self._history + data
        positions = len(columns) - 7
        counts = b""
        if positions > 0:
            # Window i is columns i..i+7 read as one little-endian word; its
            # count is the number of bits equal to the pattern's, i.e. the
            # bits set in (window XOR NOT pattern).
            windows = np.ndarray((positions,), "<u8", buffer=columns, strides=(1,))
            matches = np.bitwise_count(windows ^ np.uint64(self._pattern ^ _ALL_ONES))
            self._best = max(self._best, int(matches.max()))
            counts = matches.tobytes()
        self._history = columns[-7:]
        self._pack_lanes(counts, width_bits)

    def read_register(self, offset: int) -> int:
        if offset == REG_BEST:
            return self._best
        return super().read_register(offset)

    # -- convenience for strip preparation -------------------------------------
    @staticmethod
    def strip_columns(image: np.ndarray, row0: int) -> List[int]:
        """Column bytes of the 8-row strip of ``image`` starting at ``row0``."""
        arr = np.asarray(image).astype(bool)
        if row0 < 0 or row0 + 8 > arr.shape[0]:
            raise KernelError(f"strip row {row0} outside image of {arr.shape[0]} rows")
        strip = arr[row0 : row0 + 8, :]
        weights = (1 << np.arange(8, dtype=np.uint32))[:, None]
        return [int(v) for v in (strip * weights).sum(axis=0)]
