"""Dynamic regions.

A :class:`Region` is the rectangle of fabric reserved for run-time
reconfiguration.  It knows which resources it provides, which configuration
frames it touches, and whether it spans the device's full height (in which
case no frame merging is needed — the situation the paper explains is
usually *not* achievable because of board-level layout constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import RegionError
from .device import DeviceSpec
from .frames import BlockType, FrameAddress, FrameGeometry
from .geometry import Rect
from .resources import ResourceVector


@dataclass(frozen=True)
class Region:
    """A rectangular dynamic area on a specific device."""

    device: DeviceSpec
    rect: Rect
    name: str = "dynamic"

    def __post_init__(self) -> None:
        if not self.device.grid.contains_rect(self.rect):
            raise RegionError(
                f"region {self.rect} does not fit device {self.device.name} "
                f"grid {self.device.grid}"
            )
        for block in self.device.cpu_blocks:
            if self.rect.overlaps(block):
                raise RegionError(
                    f"region {self.rect} overlaps embedded CPU block {block} "
                    f"on {self.device.name}"
                )

    # -- capacity ---------------------------------------------------------
    @cached_property
    def resources(self) -> ResourceVector:
        """Fabric resources available inside the region."""
        return self.device.resources_in(self.rect)

    @property
    def clb_count(self) -> int:
        return self.device.clbs_in(self.rect)

    @property
    def slice_fraction(self) -> float:
        """Fraction of the device's slices inside the region."""
        return self.resources.slices / self.device.slice_count

    @property
    def full_height(self) -> bool:
        """True when the region spans the full device height.

        Full-height regions own their frames entirely; anything less forces
        partial bitstreams to preserve the static rows of shared frames.
        """
        return self.rect.row == 0 and self.rect.row_end == self.device.clb_rows

    # -- configuration --------------------------------------------------------
    @cached_property
    def _frames(self) -> "_ColumnFrames":
        return _column_frames(self.device, self.rect.col, self.rect.col_end)

    @property
    def frame_addresses(self) -> Tuple[FrameAddress, ...]:
        """Every frame a partial bitstream for this region must write."""
        return self._frames.addresses

    @property
    def frame_columns(self) -> np.ndarray:
        """CLB-grid x position of each of :attr:`frame_addresses`.

        A CLB frame sits at its column; a BRAM frame at the x position its
        BRAM column is threaded through.  A placement spanning columns
        ``[c0, c1)`` contributes to exactly the frames whose position lies
        in that span.
        """
        return self._frames.columns

    @property
    def frame_rows(self) -> np.ndarray:
        """Configuration-memory row of each of :attr:`frame_addresses`."""
        return self._frames.rows

    @property
    def frame_fars(self) -> np.ndarray:
        """Packed FAR word of each of :attr:`frame_addresses`."""
        return self._frames.fars

    @property
    def frame_count(self) -> int:
        return len(self.frame_addresses)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.rect.width}x{self.rect.height} CLBs at "
            f"({self.rect.col},{self.rect.row}) on {self.device.name} "
            f"[{self.resources}]"
        )


class _ColumnFrames(NamedTuple):
    """The frames of one column span of a device, in write order: their
    addresses, grid x positions, memory rows and FAR words.  The arrays
    are read-only and shared by every region over the span."""

    addresses: Tuple[FrameAddress, ...]
    columns: np.ndarray
    rows: np.ndarray
    fars: np.ndarray


@lru_cache(maxsize=64)
def _column_frames(device: DeviceSpec, col0: int, col1: int) -> _ColumnFrames:
    geometry = FrameGeometry(device)
    addresses = tuple(geometry.frames_for_columns(col0, col1))
    bram_columns = device.bram_columns
    columns = np.array(
        [
            address.major if address.block is BlockType.CLB else bram_columns[address.major].col
            for address in addresses
        ],
        dtype=np.int64,
    )
    rows = geometry.frame_rows(addresses)
    fars = geometry.frame_fars()[rows]
    for array in (columns, rows, fars):
        array.setflags(write=False)
    return _ColumnFrames(addresses, columns, rows, fars)


def find_region(
    device: DeviceSpec,
    width: int,
    height: int,
    bram_blocks: Optional[int] = None,
    name: str = "dynamic",
    avoid: Sequence[Rect] = (),
) -> Region:
    """Floorplan search: place a ``width x height`` region on ``device``.

    Scans candidate positions left-to-right, bottom-to-top and returns the
    first placement that avoids the CPU blocks (and any extra ``avoid``
    rectangles) and — when ``bram_blocks`` is given — contains exactly that
    many BRAM blocks.  Raises :class:`RegionError` when no placement works.
    """
    if width > device.clb_cols or height > device.clb_rows:
        raise RegionError(
            f"{width}x{height} region cannot fit {device.name} "
            f"({device.clb_cols}x{device.clb_rows})"
        )
    for row in range(device.clb_rows - height + 1):
        for col in range(device.clb_cols - width + 1):
            rect = Rect(col, row, width, height)
            if any(rect.overlaps(block) for block in device.cpu_blocks):
                continue
            if any(rect.overlaps(extra) for extra in avoid):
                continue
            if bram_blocks is not None and device.bram_blocks_in(rect) != bram_blocks:
                continue
            return Region(device=device, rect=rect, name=name)
    constraint = f" with exactly {bram_blocks} BRAMs" if bram_blocks is not None else ""
    raise RegionError(f"no {width}x{height} placement{constraint} found on {device.name}")


def candidate_regions(
    device: DeviceSpec, width: int, height: int, avoid: Sequence[Rect] = ()
) -> Iterator[Region]:
    """Yield every legal placement of a ``width x height`` region."""
    for row in range(device.clb_rows - height + 1):
        for col in range(device.clb_cols - width + 1):
            rect = Rect(col, row, width, height)
            if any(rect.overlaps(block) for block in device.cpu_blocks):
                continue
            if any(rect.overlaps(extra) for extra in avoid):
                continue
            yield Region(device=device, rect=rect)
