"""Bus macros: fixed-position inter-component connections.

When BitLinker assembles a partial configuration from separately designed
components, signals can only cross a component boundary if both sides agree
— at design time — on the exact physical resources the signals pass
through.  A *bus macro* pins each signal to a known LUT (or tristate
buffer) position on the component edge, so any two components designed
against the same macro can be abutted (figure 2 of the paper).

Two flavours are modelled:

* **LUT-based** — each signal routes through one LUT per side.  Two 4-input
  LUTs per slice means ``ceil(width / 2)`` slices per side.
* **Tristate-based** — each signal uses a TBUF pair on a shared long line,
  plus a driver slice per signal.  More area, which is why the paper's
  circuits use LUT-based macros.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import PortMismatchError
from ..fabric.resources import ResourceVector


class MacroKind(enum.Enum):
    """Physical implementation of a bus macro."""

    LUT = "lut"
    TRISTATE = "tristate"


class Side(enum.Enum):
    """Which vertical edge of a component a macro sits on."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def opposite(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class Direction(enum.Enum):
    """Signal direction as seen by the component that declares the port."""

    IN = "in"
    OUT = "out"

    @property
    def opposite(self) -> "Direction":
        return Direction.OUT if self is Direction.IN else Direction.IN


@dataclass(frozen=True)
class BusMacro:
    """A bus-macro *shape*: kind, signal count, and edge position.

    ``row_offset`` is the CLB row (relative to the component's bottom edge)
    where the macro's resources start.  Components sharing a macro shape at
    the same offset can be connected by abutment.
    """

    name: str
    kind: MacroKind
    width: int
    row_offset: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise PortMismatchError(f"bus macro {self.name!r} must carry at least one signal")
        if self.row_offset < 0:
            raise PortMismatchError(f"bus macro {self.name!r} has negative row offset")

    @property
    def slices_per_side(self) -> int:
        """Slice cost on each side of the boundary."""
        if self.kind is MacroKind.LUT:
            return math.ceil(self.width / 2)
        return self.width  # tristate: one driver slice per signal

    @property
    def rows_spanned(self) -> int:
        """CLB rows the macro occupies (4 slices per CLB row)."""
        return math.ceil(self.slices_per_side / 4)

    def resource_cost(self) -> ResourceVector:
        """Fabric cost for **one** side of the macro."""
        if self.kind is MacroKind.LUT:
            return ResourceVector(slices=self.slices_per_side)
        return ResourceVector(slices=self.slices_per_side, tbufs=2 * self.width)

    def shape_key(self) -> Tuple[MacroKind, int, int]:
        """Everything that must match for two ports to connect."""
        return (self.kind, self.width, self.row_offset)


@dataclass(frozen=True)
class Port:
    """A component's (or the dock's) connection point.

    A port is a bus macro shape plus the side it sits on and the direction
    of its signals from the owner's point of view.
    """

    macro: BusMacro
    side: Side
    direction: Direction

    def mates_with(self, other: "Port") -> bool:
        """True if this port can connect to ``other`` by abutment.

        Requires identical macro shape, opposite sides and opposite
        directions (an output must feed an input).
        """
        return (
            self.macro.shape_key() == other.macro.shape_key()
            and self.side is other.side.opposite
            and self.direction is other.direction.opposite
        )


def standard_data_macros(bus_width: int) -> Tuple[BusMacro, BusMacro, BusMacro]:
    """The dock's standard connection interface for a given data width.

    Returns (write channel, read channel, control macro): two
    ``bus_width``-bit unidirectional channels plus a 4-signal control macro
    carrying the write-strobe clock-enable and handshake lines that the
    paper's connection interface generates.
    """
    write = BusMacro(name=f"dock_write{bus_width}", kind=MacroKind.LUT, width=bus_width, row_offset=0)
    read = BusMacro(
        name=f"dock_read{bus_width}",
        kind=MacroKind.LUT,
        width=bus_width,
        row_offset=write.rows_spanned,
    )
    ctrl = BusMacro(
        name="dock_ctrl",
        kind=MacroKind.LUT,
        width=4,
        row_offset=write.rows_spanned + read.rows_spanned,
    )
    return write, read, ctrl
