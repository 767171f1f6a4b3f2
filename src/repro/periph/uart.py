"""Serial port (the external communication unit).

A 16450-style UART on the OPB: transmit/receive registers plus a status
register.  Characters written to TX are appended to :attr:`tx_log`;
:meth:`feed_rx` stages input for the RX register.  Byte timing at the
configured baud rate is modelled so examples can show that console I/O is
orders of magnitude slower than anything else in the system.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Tuple

from ..engine.stats import StatsGroup
from ..errors import BusError
from ..fabric.resources import ResourceVector
from ..bus.transaction import Op, Transaction

REG_TX = 0x0
REG_RX = 0x4
REG_STATUS = 0x8

STATUS_TX_READY = 0x1
STATUS_RX_AVAIL = 0x2


class Uart:
    """OPB UART model."""

    WRITE_WAIT = 1
    READ_WAIT = 1
    RESOURCES = ResourceVector(slices=96)
    #: Timing state the steady-state compiler (:mod:`repro.engine.batch`)
    #: carries across a phase: when the transmitter finishes its last byte.
    WATERMARKS = ("tx_busy_until_ps",)

    def __init__(self, base: int, baud: int = 115200, name: str = "uart") -> None:
        if baud <= 0:
            raise BusError("baud rate must be positive")
        self.base = base
        self.baud = baud
        self.name = name
        self.stats = StatsGroup(name)
        self.tx_log = bytearray()
        self._rx: deque[int] = deque()
        #: Simulated time at which the transmitter finishes the last byte.
        self.tx_busy_until_ps = 0

    @property
    def byte_time_ps(self) -> int:
        """Wire time of one byte: 10 bit times (start + 8 data + stop)."""
        return round(10 * 1e12 / self.baud)

    def feed_rx(self, data: bytes) -> None:
        """Stage bytes for software to read from the RX register."""
        self._rx.extend(data)

    def access(self, txn: Transaction, when_ps: int) -> Tuple[int, Any]:
        offset = txn.address - self.base
        if txn.op is Op.WRITE:
            if offset != REG_TX:
                raise BusError(f"{self.name}: write to read-only register {offset:#x}")
            payload = txn.data if isinstance(txn.data, (list, tuple)) else [txn.data]
            for value in payload:
                self.tx_log.append(int(value) & 0xFF)
                start = max(when_ps, self.tx_busy_until_ps)
                self.tx_busy_until_ps = start + self.byte_time_ps
            self.stats.count("tx_bytes", len(payload))
            return self.WRITE_WAIT, None
        if offset == REG_RX:
            self.stats.count("rx_reads")
            return self.READ_WAIT, self._rx.popleft() if self._rx else 0
        if offset == REG_STATUS:
            status = STATUS_TX_READY if when_ps >= self.tx_busy_until_ps else 0
            if self._rx:
                status |= STATUS_RX_AVAIL
            return self.READ_WAIT, status
        raise BusError(f"{self.name}: read from unknown register {offset:#x}")
