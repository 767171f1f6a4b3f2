"""Interrupt controller.

Added to the 64-bit system so the PLB Dock can signal DMA completion
without the CPU polling.  Sources raise a line; the controller latches it
in the pending register; software (the CPU model) reads/acknowledges it.

The controller also supports a registered Python callback per source so
engine-level processes (the DMA completion) can wake a waiting CPU event.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..engine.stats import StatsGroup
from ..errors import BusError
from ..fabric.resources import ResourceVector
from ..bus.transaction import Op, Transaction

REG_PENDING = 0x0
REG_ENABLE = 0x4
REG_ACK = 0x8


class InterruptController:
    """OPB interrupt controller with 32 sources."""

    WRITE_WAIT = 0
    READ_WAIT = 1
    RESOURCES = ResourceVector(slices=72)

    def __init__(self, base: int, name: str = "intc") -> None:
        self.base = base
        self.name = name
        self.stats = StatsGroup(name)
        self.pending = 0
        self.enabled = 0
        self._handlers: Dict[int, Callable[[int, int], None]] = {}
        self.raised_log: list[Tuple[int, int]] = []  # (source, when_ps)

    # -- source side -------------------------------------------------------
    def raise_irq(self, source: int, when_ps: int) -> None:
        """A peripheral asserts interrupt line ``source`` at ``when_ps``."""
        if not 0 <= source < 32:
            raise BusError(f"{self.name}: interrupt source {source} out of range")
        self.pending |= 1 << source
        self.raised_log.append((source, when_ps))
        self.stats.count("raised")
        if self.enabled & (1 << source):
            handler = self._handlers.get(source)
            if handler is not None:
                handler(source, when_ps)

    def on_irq(self, source: int, handler: Callable[[int, int], None]) -> None:
        """Register a model-level handler (the CPU's interrupt entry)."""
        self._handlers[source] = handler

    # -- bus side --------------------------------------------------------------
    def access(self, txn: Transaction, when_ps: int) -> Tuple[int, Any]:
        offset = txn.address - self.base
        if txn.op is Op.WRITE:
            payload = txn.data if isinstance(txn.data, (list, tuple)) else [txn.data]
            value = int(payload[-1]) & 0xFFFFFFFF
            if offset == REG_ENABLE:
                self.enabled = value
                return self.WRITE_WAIT, None
            if offset == REG_ACK:
                self.pending &= ~value
                self.stats.count("acks")
                return self.WRITE_WAIT, None
            raise BusError(f"{self.name}: write to unknown register {offset:#x}")
        if offset == REG_PENDING:
            self.stats.count("pending_reads")
            return self.READ_WAIT, self.pending & self.enabled
        if offset == REG_ENABLE:
            return self.READ_WAIT, self.enabled
        raise BusError(f"{self.name}: read from unknown register {offset:#x}")
