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
from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from .device import DeviceSpec

#: The bits of a FAR word that its block/major/minor fields occupy.
FAR_FIELDS_MASK = 0x03FFFFFF

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


def check_far_words(fars: np.ndarray) -> None:
    """Raise :class:`BitstreamError` on the first FAR word whose block
    field names no :class:`BlockType`, with the message
    :meth:`FrameAddress.unpacked` would give."""
    blocks = (np.asarray(fars) >> 24) & 0x3
    bad = np.flatnonzero(blocks > max(BlockType))
    if bad.size:
        raise BitstreamError(f"{int(blocks[bad[0]])} is not a valid {BlockType.__name__}")


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
    @cached_property
    def _catalogue(self) -> "_Catalogue":
        return _device_catalogue(self.device)

    def frame_order(self) -> Tuple[FrameAddress, ...]:
        """Every frame of the device as a tuple, in FAR (= sorted) order.

        The position of an address in this tuple is its *row index* in the
        array-backed :class:`~repro.fabric.config_memory.ConfigMemory`.
        """
        return self._catalogue.order

    def frame_fars(self) -> np.ndarray:
        """Read-only packed FAR word of every row, in :meth:`frame_order`."""
        return self._catalogue.fars

    def frame_index(self, address: FrameAddress) -> int:
        """Dense row index of ``address``.

        Raises :class:`BitstreamError` when the device has no such frame
        (e.g. a garbage FAR value).
        """
        table = self._catalogue.table
        _, majors, minors = table.shape
        row = -1
        if address.major < majors and address.minor < minors:
            row = int(table[address.block, address.major, address.minor])
        if row < 0:
            raise BitstreamError(f"frame address {address} outside {self.device.name}")
        return row

    def frame_rows(self, addresses: Sequence[FrameAddress]) -> np.ndarray:
        """Row indices for a sequence of addresses.

        Raises :class:`BitstreamError` when the device has no frame at any
        of them.
        """
        count = len(addresses)
        rows = self._lookup(
            np.fromiter((a.block for a in addresses), dtype=np.int64, count=count),
            np.fromiter((a.major for a in addresses), dtype=np.int64, count=count),
            np.fromiter((a.minor for a in addresses), dtype=np.int64, count=count),
        )
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            raise BitstreamError(
                f"frame address {addresses[int(missing[0])]} outside {self.device.name}"
            )
        return rows

    def rows_of_fars(self, fars: np.ndarray) -> np.ndarray:
        """Row indices for packed FAR words (the vectorized :meth:`frame_rows`).

        Raises :class:`BitstreamError`, naming the first FAR the device has
        no frame at, before any row is returned.
        """
        fars = np.asarray(fars, dtype=np.int64)
        rows = self._lookup((fars >> 24) & 0x3, (fars >> 8) & 0xFFFF, fars & 0xFF)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            address = FrameAddress.unpacked(int(fars[missing[0]]))
            raise BitstreamError(f"frame address {address} outside {self.device.name}")
        return rows

    def _lookup(self, blocks: np.ndarray, majors: np.ndarray, minors: np.ndarray) -> np.ndarray:
        """Table rows for the given fields; -1 where the device has no frame."""
        table = self._catalogue.table
        _, major_count, minor_count = table.shape
        inside = (majors < major_count) & (minors < minor_count)
        if inside.all():
            return table[blocks, majors, minors]
        rows = np.full(len(blocks), -1, dtype=np.intp)
        rows[inside] = table[blocks[inside], majors[inside], minors[inside]]
        return rows

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


class _Catalogue(NamedTuple):
    """One device's frame catalogue: the FAR-order addresses, their packed
    FAR words, and a dense ``(block, major, minor) -> row`` table (-1 where
    the device has no frame).  Arrays are read-only and shared."""

    order: Tuple[FrameAddress, ...]
    fars: np.ndarray
    table: np.ndarray


@lru_cache(maxsize=None)
def _device_catalogue(device: DeviceSpec) -> _Catalogue:
    order = tuple(FrameGeometry(device).all_frames())
    table = np.full(
        (
            4,
            max(address.major for address in order) + 1,
            max(address.minor for address in order) + 1,
        ),
        -1,
        dtype=np.intp,
    )
    for row, address in enumerate(order):
        table[address.block, address.major, address.minor] = row
    fars = np.array([address.packed() for address in order], dtype=np.uint32)
    table.setflags(write=False)
    fars.setflags(write=False)
    return _Catalogue(order, fars, table)
