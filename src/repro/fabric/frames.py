"""Configuration-frame addressing.

Virtex-II Pro devices are configured by *frames*: the smallest unit of
configuration data, controlling one column of resources over the **entire
height** of the device.  This full-height property is the root of the
implementation issue the paper discusses: a dynamic region that does not
span the whole height shares its frames with the static logic above and
below, so partial configurations must preserve those bits.

A frame is addressed (as on the real device, via the FAR register) by

* **block type** — CLB interconnect/logic, BRAM interconnect, BRAM content;
* **major address** — the column index within that block type;
* **minor address** — the frame index within the column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from .device import DeviceSpec

#: Per-device-name cache of (frame order, address -> row index).  Devices are
#: catalogued constants, so the FAR enumeration is identical for every
#: FrameGeometry instance built against the same device.
_FRAME_ORDER_CACHE: Dict[str, Tuple[Tuple["FrameAddress", ...], Dict["FrameAddress", int]]] = {}

#: FAR word -> FrameAddress memo (instances are frozen, so sharing is safe).
_UNPACK_CACHE: Dict[int, "FrameAddress"] = {}


class BlockType(enum.IntEnum):
    """FAR block-type field."""

    CLB = 0
    BRAM_INTERCONNECT = 1
    BRAM_CONTENT = 2


@dataclass(frozen=True, order=True)
class FrameAddress:
    """One configuration frame's address (block type, major, minor)."""

    block: BlockType
    major: int
    minor: int

    def __post_init__(self) -> None:
        if self.major < 0 or self.minor < 0:
            raise BitstreamError(f"negative frame address field: {self}")

    def packed(self) -> int:
        """Pack into a 32-bit FAR word (block[25:24], major[23:8], minor[7:0])."""
        if self.major >= 1 << 16 or self.minor >= 1 << 8:
            raise BitstreamError(f"frame address out of packing range: {self}")
        return (int(self.block) << 24) | (self.major << 8) | self.minor

    @classmethod
    def unpacked(cls, word: int) -> "FrameAddress":
        """Inverse of :meth:`packed`."""
        cached = _UNPACK_CACHE.get(word)
        if cached is None:
            block = BlockType((word >> 24) & 0x3)
            cached = cls(block=block, major=(word >> 8) & 0xFFFF, minor=word & 0xFF)
            _UNPACK_CACHE[word] = cached
        return cached

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.block.name}[{self.major}].{self.minor}"


class FrameGeometry:
    """Frame layout of a specific device.

    Answers "which frames configure column X?" and "which words/bits of a
    frame belong to rows [r0, r1)?" — the two questions BitLinker and the
    configuration controller need.
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.words_per_frame = device.words_per_frame
        self._bram_major_by_col = {
            column.col: major for major, column in enumerate(device.bram_columns)
        }
        self._row_mask_cache: Dict[Tuple[int, int], np.ndarray] = {}

    # -- enumeration --------------------------------------------------------
    def clb_column_frames(self, col: int) -> List[FrameAddress]:
        """All frames of CLB column ``col``."""
        if not 0 <= col < self.device.clb_cols:
            raise BitstreamError(f"CLB column {col} outside {self.device.name}")
        return [
            FrameAddress(BlockType.CLB, col, minor)
            for minor in range(self.device.frames_per_clb_column)
        ]

    def bram_column_frames(self, col: int, content: bool = True) -> List[FrameAddress]:
        """Frames of the BRAM column threaded at CLB x position ``col``.

        ``content=True`` returns the (large) content frames, otherwise the
        interconnect frames.
        """
        if col not in self._bram_major_by_col:
            raise BitstreamError(f"no BRAM column at x={col} on {self.device.name}")
        major = self._bram_major_by_col[col]
        if content:
            count = self.device.frames_per_bram_content
            block = BlockType.BRAM_CONTENT
        else:
            count = self.device.frames_per_bram_interconnect
            block = BlockType.BRAM_INTERCONNECT
        return [FrameAddress(block, major, minor) for minor in range(count)]

    def frames_for_columns(
        self, col0: int, col1: int, include_bram: bool = True
    ) -> List[FrameAddress]:
        """Every frame configuring CLB columns [col0, col1), optionally with
        the BRAM columns threaded through that range.

        This is exactly the frame set a partial bitstream for a dynamic
        region spanning those columns must write.
        """
        frames: List[FrameAddress] = []
        for col in range(col0, col1):
            frames.extend(self.clb_column_frames(col))
        if include_bram:
            for column in self.device.bram_columns_in(col0, col1):
                frames.extend(self.bram_column_frames(column.col, content=False))
                frames.extend(self.bram_column_frames(column.col, content=True))
        return frames

    def all_frames(self) -> Iterator[FrameAddress]:
        """Every frame of the device, in FAR order."""
        for col in range(self.device.clb_cols):
            yield from self.clb_column_frames(col)
        for column in self.device.bram_columns:
            yield from self.bram_column_frames(column.col, content=False)
        for column in self.device.bram_columns:
            yield from self.bram_column_frames(column.col, content=True)

    def frame_count(self) -> int:
        """Total frames (must agree with the device spec)."""
        return self.device.total_frames

    # -- dense row indexing ---------------------------------------------------
    def _order_and_index(self) -> Tuple[Tuple[FrameAddress, ...], Dict[FrameAddress, int]]:
        cached = _FRAME_ORDER_CACHE.get(self.device.name)
        if cached is None:
            order = tuple(self.all_frames())
            cached = (order, {address: row for row, address in enumerate(order)})
            _FRAME_ORDER_CACHE[self.device.name] = cached
        return cached

    def frame_order(self) -> Tuple[FrameAddress, ...]:
        """Every frame of the device as a tuple, in FAR (= sorted) order.

        The position of an address in this tuple is its *row index* in the
        array-backed :class:`~repro.fabric.config_memory.ConfigMemory`.
        """
        return self._order_and_index()[0]

    def frame_index(self, address: FrameAddress) -> int:
        """Dense row index of ``address``.

        Raises :class:`BitstreamError` when the device has no such frame
        (e.g. a garbage FAR value).
        """
        row = self._order_and_index()[1].get(address)
        if row is None:
            raise BitstreamError(f"frame address {address} outside {self.device.name}")
        return row

    def frame_rows(self, addresses: Sequence[FrameAddress]) -> np.ndarray:
        """Row indices for a sequence of addresses.

        Raises :class:`BitstreamError` when the device has no frame at any
        of them.
        """
        index = self._order_and_index()[1]
        try:
            return np.fromiter(
                (index[a] for a in addresses), dtype=np.intp, count=len(addresses)
            )
        except KeyError as err:
            raise BitstreamError(
                f"frame address {err.args[0]} outside {self.device.name}"
            ) from None

    # -- intra-frame row mapping ----------------------------------------------
    def row_mask(self, row0: int, row1: int) -> np.ndarray:
        """A per-word uint32 mask selecting the bits of rows [row0, row1).

        Word ``w`` bit ``b`` of a frame corresponds to frame bit
        ``32*w + b``.  The returned array has :attr:`words_per_frame`
        entries; a set bit means "this configuration bit belongs to the row
        range".  BitLinker uses this to merge dynamic-region content into
        frames without disturbing the static rows.

        Masks are memoised per row range — BitLinker and the
        static-preservation check ask for the same region mask once per
        frame — so the result is a shared, read-only array.
        """
        mask = self._row_mask_cache.get((row0, row1))
        if mask is None:
            if not (0 <= row0 <= row1 <= self.device.clb_rows):
                raise BitstreamError(f"row range [{row0},{row1}) outside {self.device.name}")
            bits = self.device.bits_per_frame_row
            bit_index = np.arange(self.words_per_frame * 32, dtype=np.int64)
            selected = (bit_index >= row0 * bits) & (bit_index < row1 * bits)
            weights = (np.uint64(1) << (bit_index % 32).astype(np.uint64)) * selected.astype(
                np.uint64
            )
            mask = weights.reshape(self.words_per_frame, 32).sum(axis=1, dtype=np.uint64)
            mask = mask.astype(np.uint32)
            mask.flags.writeable = False
            self._row_mask_cache[(row0, row1)] = mask
        return mask

    def empty_frame(self) -> np.ndarray:
        """A zeroed frame buffer."""
        return np.zeros(self.words_per_frame, dtype=np.uint32)
