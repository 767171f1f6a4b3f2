"""Virtex-II Pro device catalog.

Devices are described by their CLB grid, embedded PowerPC 405 blocks,
and block-RAM columns.  The two devices the paper uses are modelled so that
their headline numbers match the text exactly:

* **XC2VP7** — 4928 slices, 44 BRAM blocks, speed grade -6.
* **XC2VP30** — 13696 slices (~2.7x more), 136 BRAM blocks, two CPU cores,
  speed grade -7.

The CLB grid is ``clb_rows x clb_cols`` minus the sites carved out by the
embedded CPU blocks.  BRAM blocks live in dedicated columns threaded through
the array; their positions matter because a dynamic region only gets the
BRAMs whose column and row fall inside its rectangle (the 32-bit system's
region holds 6 BRAMs, the 64-bit system's holds 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Tuple

from ..errors import FabricError
from .geometry import Coord, Rect
from .resources import SLICES_PER_CLB, ResourceVector


@dataclass(frozen=True)
class BramColumn:
    """One column of block RAMs.

    ``col`` is the CLB-grid x position the column is threaded through;
    ``rows`` are the row coordinates of the individual 18-kbit blocks.
    """

    col: int
    rows: Tuple[int, ...]

    @property
    def block_count(self) -> int:
        return len(self.rows)

    def blocks_in_rows(self, row0: int, row1: int) -> int:
        """Number of blocks with row in the half-open range [row0, row1)."""
        return sum(1 for r in self.rows if row0 <= r < row1)


def _spread_rows(count: int, total_rows: int, phase: float) -> Tuple[int, ...]:
    """Place ``count`` BRAM blocks evenly over ``total_rows`` rows.

    ``phase`` staggers alternate columns so that neighbouring columns do not
    share identical row patterns (as on the real device, where block rows
    interleave with the clock rows).
    """
    step = total_rows / count
    rows = []
    for i in range(count):
        row = int((i + 0.25 + phase) * step)
        rows.append(min(row, total_rows - 1))
    # Placement must be strictly increasing; clamp duplicates upward.
    for i in range(1, len(rows)):
        if rows[i] <= rows[i - 1]:
            rows[i] = rows[i - 1] + 1
    if rows[-1] >= total_rows:
        raise FabricError("BRAM rows exceed device height")
    return tuple(rows)


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one Virtex-II Pro device."""

    name: str
    clb_rows: int
    clb_cols: int
    speed_grade: int
    cpu_blocks: Tuple[Rect, ...]
    bram_columns: Tuple[BramColumn, ...]
    #: Frames per CLB column (Virtex-II Pro: 22).
    frames_per_clb_column: int = 22
    #: Frames per BRAM column (content + interconnect).
    frames_per_bram_content: int = 64
    frames_per_bram_interconnect: int = 22
    #: Configuration bits each CLB row contributes to a frame.
    bits_per_frame_row: int = 80

    def __post_init__(self) -> None:
        grid = Rect(0, 0, self.clb_cols, self.clb_rows)
        for block in self.cpu_blocks:
            if not grid.contains_rect(block):
                raise FabricError(f"{self.name}: CPU block {block} outside the CLB grid")
        for a_idx, a in enumerate(self.cpu_blocks):
            for b in self.cpu_blocks[a_idx + 1 :]:
                if a.overlaps(b):
                    raise FabricError(f"{self.name}: CPU blocks overlap")
        for column in self.bram_columns:
            if not 0 <= column.col < self.clb_cols:
                raise FabricError(f"{self.name}: BRAM column {column.col} outside the grid")

    # -- sizes -------------------------------------------------------------
    @property
    def grid(self) -> Rect:
        """The full CLB grid as a rectangle."""
        return Rect(0, 0, self.clb_cols, self.clb_rows)

    @cached_property
    def clb_count(self) -> int:
        """CLBs available after carving out the CPU blocks."""
        carved = sum(block.area for block in self.cpu_blocks)
        return self.clb_cols * self.clb_rows - carved

    @property
    def slice_count(self) -> int:
        return self.clb_count * SLICES_PER_CLB

    @property
    def bram_count(self) -> int:
        return sum(col.block_count for col in self.bram_columns)

    @property
    def cpu_count(self) -> int:
        return len(self.cpu_blocks)

    @cached_property
    def capacity(self) -> ResourceVector:
        """Total fabric resources of the device."""
        return ResourceVector(
            slices=self.slice_count,
            bram_blocks=self.bram_count,
            tbufs=self.clb_count * 2,
            mult18=self.bram_count,  # V2Pro pairs one MULT18x18 with each BRAM
        )

    # -- geometry queries ----------------------------------------------------
    def is_cpu_site(self, coord: Coord) -> bool:
        """True if the coordinate is inside an embedded CPU block."""
        return any(block.contains(coord) for block in self.cpu_blocks)

    def clbs_in(self, rect: Rect) -> int:
        """CLB sites in ``rect`` excluding those carved by CPU blocks."""
        if not self.grid.contains_rect(rect):
            raise FabricError(f"{rect} does not fit {self.name} grid {self.grid}")
        carved = 0
        for block in self.cpu_blocks:
            inter = rect.intersection(block)
            if inter is not None:
                carved += inter.area
        return rect.area - carved

    def bram_blocks_in(self, rect: Rect) -> int:
        """BRAM blocks whose column and row fall inside ``rect``."""
        total = 0
        for column in self.bram_columns:
            if rect.col <= column.col < rect.col_end:
                total += column.blocks_in_rows(rect.row, rect.row_end)
        return total

    def bram_columns_in(self, col0: int, col1: int) -> Tuple[BramColumn, ...]:
        """BRAM columns with x position in [col0, col1)."""
        return tuple(c for c in self.bram_columns if col0 <= c.col < col1)

    def resources_in(self, rect: Rect) -> ResourceVector:
        """Fabric resources available inside ``rect``."""
        clb = self.clbs_in(rect)
        bram = self.bram_blocks_in(rect)
        return ResourceVector(
            slices=clb * SLICES_PER_CLB, bram_blocks=bram, tbufs=clb * 2, mult18=bram
        )

    # -- configuration geometry ----------------------------------------------
    @property
    def words_per_frame(self) -> int:
        """32-bit words in one configuration frame (covers full height)."""
        bits = self.clb_rows * self.bits_per_frame_row
        return (bits + 31) // 32 + 1  # +1 pad word, as on the real device

    @cached_property
    def total_frames(self) -> int:
        """All configuration frames of the device (CLB + BRAM columns)."""
        clb_frames = self.clb_cols * self.frames_per_clb_column
        bram_frames = len(self.bram_columns) * (
            self.frames_per_bram_content + self.frames_per_bram_interconnect
        )
        return clb_frames + bram_frames

    @property
    def configuration_bits(self) -> int:
        """Total configuration-memory size in bits."""
        return self.total_frames * self.words_per_frame * 32

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name} (-{self.speed_grade}): {self.slice_count} slices, "
            f"{self.bram_count} BRAM, {self.cpu_count} CPU"
        )


def _build_xc2vp7() -> DeviceSpec:
    rows, cols = 40, 34
    # One PPC405 block, 8x16 CLB sites, upper-left corner region.
    cpu = (Rect(0, 24, 8, 16),)
    bram_cols = tuple(
        BramColumn(col=c, rows=_spread_rows(11, rows, phase=0.5 * (idx % 2)))
        for idx, c in enumerate((0, 8, 25, 33))
    )
    return DeviceSpec(
        name="XC2VP7",
        clb_rows=rows,
        clb_cols=cols,
        speed_grade=6,
        cpu_blocks=cpu,
        bram_columns=bram_cols,
    )


def _build_xc2vp30() -> DeviceSpec:
    rows, cols = 80, 46
    # Two PPC405 blocks near the top edge, mirrored left/right.
    cpu = (Rect(0, 56, 8, 16), Rect(38, 56, 8, 16))
    bram_cols = tuple(
        BramColumn(col=c, rows=_spread_rows(17, rows, phase=0.5 * (idx % 2)))
        for idx, c in enumerate((0, 6, 12, 18, 27, 33, 39, 45))
    )
    return DeviceSpec(
        name="XC2VP30",
        clb_rows=rows,
        clb_cols=cols,
        speed_grade=7,
        cpu_blocks=cpu,
        bram_columns=bram_cols,
    )


def _build_xc2vp20() -> DeviceSpec:
    """Mid-range sibling: 9280 slices, 88 BRAMs, two CPU cores."""
    rows, cols = 56, 46
    cpu = (Rect(0, 40, 8, 16), Rect(38, 40, 8, 16))
    bram_cols = tuple(
        BramColumn(col=c, rows=_spread_rows(11, rows, phase=0.5 * (idx % 2)))
        for idx, c in enumerate((0, 6, 12, 18, 27, 33, 39, 45))
    )
    return DeviceSpec(
        name="XC2VP20",
        clb_rows=rows,
        clb_cols=cols,
        speed_grade=6,
        cpu_blocks=cpu,
        bram_columns=bram_cols,
    )


def _build_xc2vp50() -> DeviceSpec:
    """Large sibling: 23616 slices, 232 BRAMs, two CPU cores."""
    rows, cols = 88, 70
    cpu = (Rect(0, 64, 8, 16), Rect(62, 64, 8, 16))
    bram_cols = tuple(
        BramColumn(col=c, rows=_spread_rows(29, rows, phase=0.5 * (idx % 2)))
        for idx, c in enumerate((0, 9, 18, 27, 42, 51, 60, 69))
    )
    return DeviceSpec(
        name="XC2VP50",
        clb_rows=rows,
        clb_cols=cols,
        speed_grade=7,
        cpu_blocks=cpu,
        bram_columns=bram_cols,
    )


def _build_xc2vp4() -> DeviceSpec:
    """A smaller sibling, used only by tests that need a third device."""
    rows, cols = 40, 22
    cpu = (Rect(0, 24, 8, 16),)
    bram_cols = tuple(
        BramColumn(col=c, rows=_spread_rows(7, rows, phase=0.5 * (idx % 2)))
        for idx, c in enumerate((0, 10, 21))
    )
    return DeviceSpec(
        name="XC2VP4",
        clb_rows=rows,
        clb_cols=cols,
        speed_grade=5,
        cpu_blocks=cpu,
        bram_columns=bram_cols,
    )


#: Catalog of modelled devices, keyed by part name.
DEVICES: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (
        _build_xc2vp4(),
        _build_xc2vp7(),
        _build_xc2vp20(),
        _build_xc2vp30(),
        _build_xc2vp50(),
    )
}

XC2VP7 = DEVICES["XC2VP7"]
XC2VP30 = DEVICES["XC2VP30"]
XC2VP4 = DEVICES["XC2VP4"]
XC2VP20 = DEVICES["XC2VP20"]
XC2VP50 = DEVICES["XC2VP50"]


def get_device(name: str) -> DeviceSpec:
    """Look up a device by part name (case-insensitive)."""
    key = name.upper()
    if key not in DEVICES:
        known = ", ".join(sorted(DEVICES))
        raise FabricError(f"unknown device {name!r}; known devices: {known}")
    return DEVICES[key]


def list_devices() -> Iterable[str]:
    """Names of all catalogued devices."""
    return sorted(DEVICES)
