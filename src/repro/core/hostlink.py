"""Host link: the external communication unit in action.

The generic organisation (figure 1) includes an external communication
unit "responsible for communications with an external system (e.g., a
standalone computer) for data transfer, system control and debugging
operations".  This module implements a small framed protocol over the
UART model:

``[SOF][command][length][payload...][checksum]``

with commands PING, READ_WORD, WRITE_WORD and STATUS.  Every byte pays the
UART's wire time plus a per-byte CPU service cost, which makes the link's
central property measurable: at 115200 baud it is fine for control and
debugging and hopeless for bulk data — the reason the docks exist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..errors import TransferError
from .system import System

SOF = 0x7E


class Command(enum.IntEnum):
    PING = 0x01
    READ_WORD = 0x02
    WRITE_WORD = 0x03
    STATUS = 0x04


#: CPU cycles to service one received/transmitted byte (ISR + buffer).
BYTE_SERVICE_CYCLES = 60


@dataclass
class LinkStats:
    frames: int = 0
    bytes_wire: int = 0
    checksum_errors: int = 0


def _checksum(payload: bytes) -> int:
    total = 0
    for byte in payload:
        total = (total + byte) & 0xFF
    return (0x100 - total) & 0xFF


def encode_frame(command: Command, payload: bytes = b"") -> bytes:
    """Build one wire frame."""
    if len(payload) > 255:
        raise TransferError("host-link payload limited to 255 bytes")
    body = bytes([int(command), len(payload)]) + payload
    return bytes([SOF]) + body + bytes([_checksum(body)])


def decode_frame(frame: bytes) -> Tuple[Command, bytes]:
    """Parse and checksum-verify one wire frame."""
    if len(frame) < 4 or frame[0] != SOF:
        raise TransferError("malformed host-link frame")
    body = frame[1:-1]
    if _checksum(body) != frame[-1]:
        raise TransferError("host-link checksum mismatch")
    command = Command(body[0])
    length = body[1]
    payload = body[2:]
    if len(payload) != length:
        raise TransferError("host-link length field mismatch")
    return command, bytes(payload)


class HostLink:
    """Host-side driver of the system's serial link."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.stats = LinkStats()

    # -- timing ------------------------------------------------------------
    def _charge_wire(self, nbytes: int) -> None:
        """Wire time + per-byte CPU service for ``nbytes`` on the UART."""
        cpu = self.system.cpu
        cpu.now_ps += self.system.uart.byte_time_ps * nbytes
        cpu.execute_cycles(BYTE_SERVICE_CYCLES * nbytes)
        self.stats.bytes_wire += nbytes

    def _transact(self, command: Command, payload: bytes) -> Tuple[Command, bytes]:
        request = encode_frame(command, payload)
        self._charge_wire(len(request))
        self.system.uart.feed_rx(request)  # functional delivery to the system
        response = self._handle(command, payload)
        self._charge_wire(len(response))
        self.stats.frames += 1
        reply_command, reply_payload = decode_frame(response)
        return reply_command, reply_payload

    # -- system-side service routine -------------------------------------------
    def _handle(self, command: Command, payload: bytes) -> bytes:
        cpu = self.system.cpu
        if command is Command.PING:
            return encode_frame(Command.PING, payload)
        if command is Command.READ_WORD:
            address = int.from_bytes(payload[:4], "little")
            value = cpu.io_read(address)
            return encode_frame(Command.READ_WORD, value.to_bytes(4, "little"))
        if command is Command.WRITE_WORD:
            address = int.from_bytes(payload[:4], "little")
            value = int.from_bytes(payload[4:8], "little")
            cpu.io_write(address, value)
            return encode_frame(Command.WRITE_WORD, b"")
        if command is Command.STATUS:
            active = getattr(self.system.dock.kernel, "name", "") or ""
            return encode_frame(Command.STATUS, active.encode("ascii")[:255])
        raise TransferError(f"unknown host-link command {command!r}")

    # -- public operations ------------------------------------------------------
    def ping(self, token: bytes = b"hello") -> bytes:
        """Round-trip a token; returns the echo."""
        _, payload = self._transact(Command.PING, token)
        return payload

    def read_word(self, address: int) -> int:
        """Debug read of any bus address through the link."""
        _, payload = self._transact(Command.READ_WORD, address.to_bytes(4, "little"))
        return int.from_bytes(payload, "little")

    def write_word(self, address: int, value: int) -> None:
        """Debug write of any bus address through the link."""
        self._transact(
            Command.WRITE_WORD,
            address.to_bytes(4, "little") + (value & 0xFFFFFFFF).to_bytes(4, "little"),
        )

    def active_kernel(self) -> str:
        """Ask which kernel currently occupies the dynamic area."""
        _, payload = self._transact(Command.STATUS, b"")
        return payload.decode("ascii")

    def upload(self, address: int, data: bytes) -> int:
        """Bulk upload over the serial link; returns elapsed picoseconds.

        Provided deliberately: comparing this against a dock transfer shows
        why the link is for *control*, not data.
        """
        cpu = self.system.cpu
        start = cpu.now_ps
        for offset in range(0, len(data), 4):
            chunk = data[offset : offset + 4].ljust(4, b"\0")
            self.write_word(address + offset, int.from_bytes(chunk, "little"))
        return cpu.now_ps - start
