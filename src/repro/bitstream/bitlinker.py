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
* the placements must keep the rules BITS001–BITS005 that
  :func:`walk_placements` checks, the same walker :mod:`repro.checks`
  reports from: components stay inside the region without overlapping, fit
  its resources, and connect only through bus macros that mate with the
  dock's connection interface at the region edge and with each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..engine import fastpath
from ..errors import LinkError, PortMismatchError, ResourceError
from ..fabric.config_memory import ConfigMemory, ConfigSnapshot
from ..fabric.frames import FrameAddress, FrameGeometry
from ..fabric.geometry import Rect
from ..fabric.region import Region
from .bitstream import Bitstream, BitstreamKind
from .busmacro import Port, Side
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


class PlacementViolation(NamedTuple):
    """One broken placement rule, named by its ``repro.checks`` rule id."""

    rule: str
    message: str
    obj: str
    hint: Optional[str] = None


def walk_placements(
    region: Region, placements: Sequence[Placement], dock_ports: Sequence[Port] = ()
) -> Tuple[List[PlacementViolation], LinkReport]:
    """Walk the placement rules BITS001–BITS005 over an assembly for ``region``.

    Returns every violation in walk order, and the report a link of the
    assembly fills in: component names, resources, and the bus-macro
    connections that mate.  :func:`repro.checks.check_placements` reports
    all the violations; :meth:`BitLinker.link` raises on the first.
    """
    violations: List[PlacementViolation] = []
    report = LinkReport()

    def violate(rule: str, message: str, *obj: str, hint: Optional[str] = None) -> None:
        violations.append(PlacementViolation(rule, message, ".".join((region.name,) + obj), hint))

    region_rect = Rect(0, 0, region.rect.width, region.rect.height)
    placed: List[Tuple[Placement, Rect]] = []
    for placement in placements:
        rect = placement.footprint()
        name = placement.component.name
        if not region_rect.contains_rect(rect):
            violate(
                "BITS002",
                f"component {name!r} at ({placement.col_offset},{placement.row_offset}) "
                f"does not fit the {region.rect.width}x{region.rect.height} region",
                name,
                hint="shrink the component or move it inside the region rectangle",
            )
        for other, other_rect in placed:
            if rect.overlaps(other_rect):
                violate(
                    "BITS001",
                    f"components {name!r} and {other.component.name!r} overlap "
                    f"({rect} vs {other_rect})",
                    name,
                    hint="separate the placements; overlapping bits would merge last-write-wins",
                )
        placed.append((placement, rect))
        report.components.append(name)

    if placements:
        demand = placements[0].component.total_resources
        for placement in placements[1:]:
            demand = demand + placement.component.total_resources
        capacity = region.resources
        report.resources_used = demand
        report.resources_available = capacity
        if not demand.fits_within(capacity):
            violate(
                "BITS005",
                f"assembly needs {demand} but region {region.name!r} provides {capacity} "
                f"(short by {demand.shortfall(capacity)})",
                hint="use a smaller kernel variant or a larger region",
            )

    _walk_connections(placements, dock_ports, violate, report.connections)
    return violations, report


def _walk_connections(
    placements: Sequence[Placement],
    dock_ports: Sequence[Port],
    violate: Callable[..., None],
    connections: List[Tuple[str, str]],
) -> None:
    """Match bus-macro ports: dock <-> leftmost component, and each
    abutting component pair."""
    ordered = sorted(placements, key=lambda p: p.col_offset)
    if not ordered:
        return
    leftmost = ordered[0]
    name = leftmost.component.name
    left_ports = [p for p in leftmost.component.ports if p.side is Side.LEFT]
    if left_ports and leftmost.col_offset != 0:
        violate(
            "BITS004",
            f"component {name!r} has {len(left_ports)} left-edge port(s) but sits at "
            f"column {leftmost.col_offset}, away from the dock edge",
            name,
            hint="place the dock-facing component at column offset 0",
        )
    if left_ports and not dock_ports:
        violate(
            "BITS003",
            f"component {name!r} expects {len(left_ports)} dock connection(s) but the "
            "region edge exposes none",
            name,
            hint="link against a dock, or drop the component's left-edge ports",
        )
    elif left_ports:
        for port in left_ports:
            if any(dock.mates_with(port) for dock in dock_ports):
                connections.append(("dock", f"{name}.{port.macro.name}"))
                continue
            violate(
                "BITS003",
                f"no dock port mates component {name!r} port {port.macro.name} "
                f"(shape {port.macro.shape_key()}, {port.direction.value}@{port.side.value})",
                name,
                port.macro.name,
                hint="regenerate the component against the dock's connection "
                "interface (repro.dock.interface.kernel_ports)",
            )

    for left, right in zip(ordered, ordered[1:]):
        abutting = left.col_offset + left.component.width == right.col_offset
        right_ports = sorted(
            (p for p in left.component.ports if p.side is Side.RIGHT),
            key=lambda p: p.macro.row_offset,
        )
        expect_ports = sorted(
            (p for p in right.component.ports if p.side is Side.LEFT),
            key=lambda p: p.macro.row_offset,
        )
        if not abutting:
            if expect_ports:
                violate(
                    "BITS004",
                    f"component {right.component.name!r} has left-edge ports but does "
                    f"not abut {left.component.name!r}",
                    right.component.name,
                    hint="close the gap so the bus macros line up by abutment",
                )
            continue
        if len(right_ports) != len(expect_ports):
            violate(
                "BITS003",
                f"{left.component.name!r} exposes {len(right_ports)} right-edge port(s) "
                f"but {right.component.name!r} expects {len(expect_ports)}",
                right.component.name,
            )
            continue
        for a, b in zip(right_ports, expect_ports):
            if a.mates_with(b):
                connections.append(
                    (f"{left.component.name}.{a.macro.name}", f"{right.component.name}.{b.macro.name}")
                )
                continue
            violate(
                "BITS003",
                f"ports {left.component.name}.{a.macro.name} and "
                f"{right.component.name}.{b.macro.name} do not mate "
                f"({a.macro.shape_key()} {a.direction.value} vs "
                f"{b.macro.shape_key()} {b.direction.value})",
                right.component.name,
                b.macro.name,
            )


#: The error :meth:`BitLinker.link` raises for each placement rule.
_LINK_ERRORS = {
    "BITS001": LinkError,
    "BITS002": LinkError,
    "BITS003": PortMismatchError,
    "BITS004": PortMismatchError,
    "BITS005": ResourceError,
}


class BitLinker:
    """Assembles complete partial bitstreams for one dynamic region."""

    def __init__(
        self,
        region: Region,
        baseline: ConfigMemory | ConfigSnapshot,
        dock_ports: Sequence[Port] = (),
    ) -> None:
        self.region = region
        self.geometry = FrameGeometry(region.device)
        if isinstance(baseline, ConfigMemory):
            baseline = baseline.snapshot()
        self._baseline = baseline
        #: Ports the static side (the dock) exposes at the region's left edge.
        self.dock_ports = tuple(dock_ports)
        self.last_report: Optional[LinkReport] = None

    # -- assembly ----------------------------------------------------------
    def _cleared_baseline_rows(self) -> Optional[np.ndarray]:
        """Region baseline frames with the region's rows blanked, stacked.

        Fast-path equivalent of calling :func:`region_clear_frame` per
        frame: one bulk gather from the snapshot, one vectorized mask.
        Returns ``None`` when the fast path is off or the baseline is of
        another device (callers then use the reference loop).
        """
        if not (fastpath.enabled() and self._baseline.geometry.device is self.region.device):
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
        """Produce a complete partial bitstream for the given assembly.

        Raises on the first placement rule the assembly breaks (see
        :func:`walk_placements`).
        """
        if not placements:
            raise LinkError("nothing to link: no placements given")
        violations, report = walk_placements(self.region, placements, self.dock_ports)
        if violations:
            raise _LINK_ERRORS[violations[0].rule](violations[0].message)
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
