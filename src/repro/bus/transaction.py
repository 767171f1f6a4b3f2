"""Bus transactions and the slave interface.

The bus models are *transaction level*: a master asks the bus to perform a
read or write at a given simulated time and receives the completion time
back.  Timing comes from the bus's per-phase cycle costs plus the addressed
slave's wait states; data moves functionally (values in, values out) so that
every byte a benchmark pushes through a dock really reaches the kernel
models bit-exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Protocol, Tuple, runtime_checkable


class Op(enum.Enum):
    """Transfer direction, from the master's point of view."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Transaction:
    """One bus request.

    ``size_bytes`` is the width of each beat (4 on the OPB, 4 or 8 on the
    PLB); ``beats`` > 1 models a burst to consecutive addresses.
    ``data`` carries the write payload (int for a single beat, sequence for
    a burst); reads return data via :class:`Completion`.
    """

    op: Op
    address: int
    size_bytes: int = 4
    beats: int = 1
    data: Any = None

    def __post_init__(self) -> None:
        if self.size_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported beat size {self.size_bytes}")
        if self.beats < 1:
            raise ValueError("burst must have at least one beat")

    @property
    def total_bytes(self) -> int:
        return self.size_bytes * self.beats


@dataclass(frozen=True)
class Completion:
    """Result of a bus request: when it finished and what a read returned."""

    done_ps: int
    value: Any = None
    #: For posted writes: when the master was released (<= done_ps).
    released_ps: Optional[int] = None

    @property
    def master_free_ps(self) -> int:
        """Time at which the issuing master may proceed."""
        return self.released_ps if self.released_ps is not None else self.done_ps


@runtime_checkable
class Slave(Protocol):
    """Anything attachable to a bus.

    ``access`` performs the functional side effect and returns the number of
    slave wait cycles (in the bus's clock domain) for this transaction.
    ``when_ps`` is the bus-side start time — most slaves ignore it, but
    time-aware ones (the PLB-OPB bridge, the ICAP) use it to keep their
    downstream activity aligned with simulation time.
    """

    def access(self, txn: Transaction, when_ps: int) -> Tuple[int, Any]:
        """Execute ``txn`` starting at ``when_ps``; return ``(wait_cycles, read_value)``."""
        ...


@dataclass(frozen=True)
class AddressRange:
    """A slave's claim on the address space."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("address range must have positive size")
        if self.base < 0:
            raise ValueError("address range base must be non-negative")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.base:#010x}, {self.end:#010x})"
