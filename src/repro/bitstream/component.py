"""Component configurations.

A :class:`ComponentConfig` is the unit BitLinker assembles: the result of
taking one hardware module through the regular design flow with its I/O
pinned to bus macros.  It records the module's rectangular footprint, its
resource demand, its ports, and its (synthetic but deterministic)
configuration content per column.

Content is generated by :func:`repro.bitstream.bits.deterministic_bits`
keyed on *(component name, relative column, minor frame)* — the same
component therefore produces identical bits wherever it is placed, which is
exactly the relocatability property real component bitstreams produced for
bus-macro-pinned modules have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..errors import LinkError, ResourceError
from ..fabric.resources import SLICES_PER_CLB, ResourceVector
from .bits import deterministic_bits
from .busmacro import Port


@dataclass(frozen=True)
class ComponentConfig:
    """A relocatable, pre-implemented hardware component."""

    name: str
    #: Footprint in CLBs.
    width: int
    height: int
    #: Fabric demand (must fit inside the footprint).
    resources: ResourceVector
    #: Connection points (bus macros on the component's edges).
    ports: Tuple[Port, ...] = field(default_factory=tuple)
    #: Version tag mixed into the synthetic content (a re-synthesised
    #: component gets different configuration bits).
    version: int = 1

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise LinkError(f"component {self.name!r} footprint must be positive")
        footprint_slices = self.width * self.height * SLICES_PER_CLB
        if self.resources.slices > footprint_slices:
            raise ResourceError(
                f"component {self.name!r} claims {self.resources.slices} slices but its "
                f"{self.width}x{self.height} footprint only holds {footprint_slices}"
            )
        for port in self.ports:
            if port.macro.row_offset + port.macro.rows_spanned > self.height:
                raise LinkError(
                    f"component {self.name!r}: port macro {port.macro.name} at row "
                    f"{port.macro.row_offset} exceeds component height {self.height}"
                )

    # -- content -----------------------------------------------------------
    def _seed(self, rel_col: int, minor: int) -> str:
        return f"{self.name}@v{self.version}/col{rel_col}/minor{minor}"

    def column_bits(self, rel_col: int, minor: int, bits_per_row: int) -> int:
        """Configuration bits of one (relative column, minor frame) pair.

        Returns ``height * bits_per_row`` bits as an integer, bottom row in
        the least-significant bits — ready for
        :func:`repro.bitstream.bits.place_bits`.
        """
        if not 0 <= rel_col < self.width:
            raise LinkError(
                f"component {self.name!r} has columns 0..{self.width - 1}, got {rel_col}"
            )
        return deterministic_bits(self._seed(rel_col, minor), self.height * bits_per_row)

    # -- queries -----------------------------------------------------------
    @property
    def total_resources(self) -> ResourceVector:
        """Logic demand plus the component-side cost of its port macros."""
        total = self.resources
        for port in self.ports:
            total = total + port.macro.resource_cost()
        return total

    def with_version(self, version: int) -> "ComponentConfig":
        """A re-synthesised copy (same footprint/ports, new content)."""
        return ComponentConfig(
            name=self.name,
            width=self.width,
            height=self.height,
            resources=self.resources,
            ports=self.ports,
            version=version,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.width}x{self.height} CLB, {self.resources})"
