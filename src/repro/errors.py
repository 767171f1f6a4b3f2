"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the package
layout (simulation engine, fabric/bitstream toolchain, bus/system runtime).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CheckError(ReproError):
    """A static check (DRC/lint) or a checked equivalence failed."""


class InvariantError(ReproError):
    """An internal invariant believed unreachable was violated.

    Used instead of bare ``assert`` in library code so invariants survive
    ``python -O`` (enforced by the LINT003 rule of :mod:`repro.checks`).
    """


class SimulationError(ReproError):
    """Errors raised by simulated components: CPU, cache, clock domains, MiniPPC."""


class FabricError(ReproError):
    """Errors related to the FPGA fabric model (geometry, resources)."""


class RegionError(FabricError):
    """A region is malformed or does not fit the target device."""


class ResourceError(FabricError):
    """A module's resource demand exceeds what a region/device provides."""


class BitstreamError(ReproError):
    """Errors in bitstream construction, parsing or assembly."""


class CRCError(BitstreamError):
    """A configuration packet stream failed its CRC check."""


class LinkError(BitstreamError):
    """BitLinker could not assemble the requested components."""


class PortMismatchError(LinkError):
    """Bus-macro ports of adjacent components do not line up."""


class BusError(ReproError):
    """Errors in the on-chip bus models."""


class AddressDecodeError(BusError):
    """No slave claimed the address of a bus transaction."""

    def __init__(self, address: int) -> None:
        super().__init__(f"no slave decodes address {address:#010x}")
        self.address = address


class BusWidthError(BusError):
    """A transaction is wider than the bus data path allows."""


class SystemConfigError(ReproError):
    """A system was assembled inconsistently (missing module, bad clocks)."""


class ReconfigurationError(ReproError):
    """Run-time reconfiguration of the dynamic area failed."""


class KernelError(ReproError):
    """A hardware kernel was used incorrectly (bad port, bad data shape)."""


class TransferError(ReproError):
    """Invalid data-transfer request between CPU/memory and dynamic area."""
