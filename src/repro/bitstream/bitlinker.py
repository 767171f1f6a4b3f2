"""BitLinker: assembly of partial configurations from components.

This models the authors' configuration-assembly tool (reference [12] of the
paper).  Given pre-implemented :class:`ComponentConfig` objects and their
placements inside a dynamic region, BitLinker produces a **complete**
partial bitstream:

* every frame of the region's columns is included (the bitstream is not
  "differential", so it is correct regardless of what was previously
  configured — at the price of a larger, slower-to-load bitstream);
* static rows above/below the region are copied from the baseline
  configuration, so loading the result does not disturb the static system;
* components connect only through bus macros whose shapes are validated
  against the dock's connection interface and against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine import fastpath
from ..errors import LinkError, PortMismatchError, ResourceError
from ..fabric.config_memory import ConfigMemory, ConfigSnapshot
from ..fabric.frames import FrameAddress, FrameGeometry
from ..fabric.geometry import Rect
from ..fabric.region import Region
from .bitstream import Bitstream, BitstreamKind
from .busmacro import Direction, Port, Side
from .component import ComponentConfig
from .generator import placement_frame_content, region_clear_frame


@dataclass(frozen=True)
class Placement:
    """One component at a position (in CLBs, relative to the region)."""

    component: ComponentConfig
    col_offset: int
    row_offset: int = 0

    def footprint(self) -> Rect:
        """Region-relative rectangle occupied by the component."""
        return Rect(self.col_offset, self.row_offset, self.component.width, self.component.height)


@dataclass
class LinkReport:
    """Metadata about one link run (for logs, tables and tests)."""

    components: List[str] = field(default_factory=list)
    frame_count: int = 0
    payload_words: int = 0
    resources_used: Optional[object] = None
    resources_available: Optional[object] = None
    connections: List[Tuple[str, str]] = field(default_factory=list)


class BitLinker:
    """Assembles complete partial bitstreams for one dynamic region."""

    def __init__(
        self,
        region: Region,
        baseline: ConfigMemory | Mapping[FrameAddress, np.ndarray],
        dock_ports: Sequence[Port] = (),
    ) -> None:
        self.region = region
        self.geometry = FrameGeometry(region.device)
        if isinstance(baseline, ConfigMemory):
            self._baseline = baseline.snapshot()
        elif isinstance(baseline, ConfigSnapshot):
            self._baseline = baseline
        else:
            self._baseline = {addr: np.array(d, dtype=np.uint32) for addr, d in baseline.items()}
        #: Ports the static side (the dock) exposes at the region's left edge.
        self.dock_ports = tuple(dock_ports)
        self.last_report: Optional[LinkReport] = None

    # -- validation ------------------------------------------------------
    def _validate_placements(self, placements: Sequence[Placement]) -> LinkReport:
        if not placements:
            raise LinkError("nothing to link: no placements given")
        report = LinkReport()
        region_rect = Rect(0, 0, self.region.rect.width, self.region.rect.height)
        rects: List[Tuple[Placement, Rect]] = []
        for placement in placements:
            rect = placement.footprint()
            if not region_rect.contains_rect(rect):
                raise LinkError(
                    f"component {placement.component.name!r} at "
                    f"({placement.col_offset},{placement.row_offset}) does not fit region "
                    f"{self.region.rect.width}x{self.region.rect.height}"
                )
            for other, other_rect in rects:
                if rect.overlaps(other_rect):
                    raise LinkError(
                        f"components {placement.component.name!r} and "
                        f"{other.component.name!r} overlap"
                    )
            rects.append((placement, rect))
            report.components.append(placement.component.name)

        demand = placements[0].component.total_resources
        for placement in placements[1:]:
            demand = demand + placement.component.total_resources
        capacity = self.region.resources
        if not demand.fits_within(capacity):
            raise ResourceError(
                f"assembly needs {demand} but region {self.region.name!r} provides "
                f"{capacity} (short by {demand.shortfall(capacity)})"
            )
        report.resources_used = demand
        report.resources_available = capacity

        self._validate_connections(placements, report)
        return report

    def _validate_connections(self, placements: Sequence[Placement], report: LinkReport) -> None:
        """Match bus-macro ports: dock <-> leftmost component, and each
        abutting component pair."""
        ordered = sorted(placements, key=lambda p: p.col_offset)
        leftmost = ordered[0]
        left_ports = [p for p in leftmost.component.ports if p.side is Side.LEFT]
        if left_ports and not self.dock_ports:
            raise PortMismatchError(
                f"component {leftmost.component.name!r} expects {len(left_ports)} "
                "dock connections but the region exposes none"
            )
        for port in left_ports:
            matches = [dock for dock in self.dock_ports if dock.mates_with(port)]
            if not matches:
                raise PortMismatchError(
                    f"no dock port mates component {leftmost.component.name!r} port "
                    f"{port.macro.name} ({port.direction.value}@{port.side.value})"
                )
            report.connections.append(("dock", f"{leftmost.component.name}.{port.macro.name}"))

        for left, right in zip(ordered, ordered[1:]):
            abutting = left.col_offset + left.component.width == right.col_offset
            right_ports = [p for p in left.component.ports if p.side is Side.RIGHT]
            left_ports = [p for p in right.component.ports if p.side is Side.LEFT]
            if not abutting:
                if left_ports:
                    raise PortMismatchError(
                        f"component {right.component.name!r} has left-edge ports but does "
                        f"not abut {left.component.name!r}"
                    )
                continue
            if len(right_ports) != len(left_ports):
                raise PortMismatchError(
                    f"{left.component.name!r} exposes {len(right_ports)} right-edge ports "
                    f"but {right.component.name!r} expects {len(left_ports)}"
                )
            for a, b in zip(
                sorted(right_ports, key=lambda p: p.macro.row_offset),
                sorted(left_ports, key=lambda p: p.macro.row_offset),
            ):
                a.require_mates(b)
                report.connections.append(
                    (f"{left.component.name}.{a.macro.name}", f"{right.component.name}.{b.macro.name}")
                )

    # -- assembly ----------------------------------------------------------
    def _cleared_baseline_rows(self) -> Optional[np.ndarray]:
        """Region baseline frames with the region's rows blanked, stacked.

        Fast-path equivalent of calling :func:`region_clear_frame` per
        frame: one bulk gather from the snapshot, one vectorized mask.
        Returns ``None`` when the fast path is off or the baseline is not a
        :class:`ConfigSnapshot` (callers then use the reference loop).
        """
        if not (
            fastpath.enabled()
            and isinstance(self._baseline, ConfigSnapshot)
            and self._baseline.geometry.device is self.region.device
        ):
            return None
        mask = self.geometry.row_mask_cached(self.region.rect.row, self.region.rect.row_end)
        return self._baseline.rows_for(self.region.frame_addresses) & ~mask

    def _assemble_frames(
        self, placements: Sequence[Placement]
    ) -> List[Tuple[FrameAddress, np.ndarray]]:
        cleared = self._cleared_baseline_rows()
        if cleared is not None:
            # Only frames inside a placement's x-span take its content, so
            # write those rows in placement order (the reference loop's
            # per-frame order) and leave the rest cleared.
            addresses = self.region.frame_addresses
            columns = self.region.frame_columns
            for placement in placements:
                col0 = self.region.rect.col + placement.col_offset
                covered = np.flatnonzero(
                    (columns >= col0) & (columns < col0 + placement.component.width)
                )
                for index in covered:
                    cleared[index] = placement_frame_content(
                        self.geometry,
                        self.region,
                        placement.component,
                        placement.col_offset,
                        placement.row_offset,
                        addresses[index],
                        cleared[index],
                    )
            return list(zip(addresses, cleared))
        frames: List[Tuple[FrameAddress, np.ndarray]] = []
        empty = self.geometry.empty_frame()
        for address in self.region.frame_addresses:
            baseline = self._baseline.get(address, empty)
            frame = region_clear_frame(self.geometry, self.region, address, baseline)
            for placement in placements:
                frame = placement_frame_content(
                    self.geometry,
                    self.region,
                    placement.component,
                    placement.col_offset,
                    placement.row_offset,
                    address,
                    frame,
                )
            frames.append((address, frame))
        return frames

    def link(self, placements: Sequence[Placement], description: str = "") -> Bitstream:
        """Produce a complete partial bitstream for the given assembly."""
        report = self._validate_placements(placements)
        frames = self._assemble_frames(placements)
        bitstream = Bitstream(
            device_name=self.region.device.name,
            kind=BitstreamKind.PARTIAL_COMPLETE,
            frames=frames,
            description=description or ("bitlinker: " + "+".join(report.components)),
        )
        report.frame_count = bitstream.frame_count
        report.payload_words = bitstream.payload_words
        self.last_report = report
        return bitstream

    def link_differential(
        self,
        placements: Sequence[Placement],
        current: ConfigMemory,
        description: str = "",
    ) -> Bitstream:
        """Produce a differential partial bitstream relative to ``current``.

        Smaller and faster to load than :meth:`link`'s output, but only
        correct if the device really is in the ``current`` state when the
        bitstream is applied — the hazard the paper describes.
        """
        complete = self.link(placements, description)
        frames: List[Tuple[FrameAddress, np.ndarray]] = []
        fast_ok = fastpath.enabled() and complete.frames
        if fast_ok:
            # One bulk gather + one row comparison; rows_for mirrors the
            # per-frame read counter the reference loop advances.
            current_rows = current.rows_for([address for address, _ in complete.frames])
            linked_rows = np.stack([data for _, data in complete.frames])
            for index in np.flatnonzero((current_rows != linked_rows).any(axis=1)):
                frames.append(complete.frames[index])
        else:
            for address, data in complete.frames:
                if not np.array_equal(current.read_frame(address), data):
                    frames.append((address, data))
        bitstream = Bitstream(
            device_name=self.region.device.name,
            kind=BitstreamKind.PARTIAL_DIFFERENTIAL,
            frames=frames,
            description=description or complete.description + " (differential)",
        )
        if self.last_report is not None:
            self.last_report.frame_count = bitstream.frame_count
            self.last_report.payload_words = bitstream.payload_words
        return bitstream

    def clear_bitstream(self, description: str = "clear dynamic region") -> Bitstream:
        """A complete partial bitstream that blanks the region.

        Restores the post-boot state (static rows intact, region rows zero).
        """
        frames: List[Tuple[FrameAddress, np.ndarray]] = []
        cleared = self._cleared_baseline_rows()
        if cleared is not None:
            frames = list(zip(self.region.frame_addresses, cleared))
        else:
            empty = self.geometry.empty_frame()
            for address in self.region.frame_addresses:
                baseline = self._baseline.get(address, empty)
                frames.append((address, region_clear_frame(self.geometry, self.region, address, baseline)))
        return Bitstream(
            device_name=self.region.device.name,
            kind=BitstreamKind.PARTIAL_COMPLETE,
            frames=frames,
            description=description,
        )
