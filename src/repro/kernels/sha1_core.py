"""Hardware SHA-1 core (RFC 3174).

The "more demanding" hash of the paper's evaluation: the kernel's resource
demand deliberately exceeds the 32-bit system's dynamic area, so it can be
configured only on the 64-bit system (Table 11's caption note: "our
implementation does not fit into the dynamic area of the 32-bit system").

Protocol: write the message length (bytes) to LENGTH, stream the message
packed little-endian into data words, write any value to FINALIZE, then
read H0..H4 from the result registers.  The real core runs the 80-round
compression on each 512-bit block as it completes (a round per clock; see
PIPELINE_DEPTH) and pads the message on FINALIZE.  The model computes the
digest with ``hashlib`` and counts the blocks the core compresses; the
RFC 3174 round-by-round reference it is tested against lives with the
tests (``tests/oracles/kernels.py``).
"""

from __future__ import annotations

import hashlib
import struct

from ..errors import KernelError
from .base import BaseKernel

REG_H = (0x0, 0x4, 0x8, 0xC, 0x10)
REG_BLOCKS = 0x14
LENGTH_OFFSET = 0x20
FINALIZE_OFFSET = 0x24


def sha1(message: bytes) -> bytes:
    """Batch SHA-1 (the 20-byte digest)."""
    return hashlib.sha1(message).digest()


def padded_blocks(length: int) -> int:
    """512-bit blocks SHA-1 compresses for a ``length``-byte message: the
    message, the 0x80 byte and the 64-bit bit count, rounded up."""
    return (length + 9 + 63) // 64


class Sha1Kernel(BaseKernel):
    """Streaming SHA-1 core with internal padding."""

    name = "sha1"
    SLICES_32 = 1380  # exceeds the 32-bit system's 1232-slice dynamic area
    WIDTH64_FACTOR = 1.4
    BRAMS = 2  # message-schedule storage
    PIPELINE_DEPTH = 82  # 80 rounds + load/store

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._length = 0
        self._restart()

    def _restart(self) -> None:
        self._hash = hashlib.sha1()
        self._bytes_seen = 0
        self._state: tuple[int, ...] | None = None

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        if offset == LENGTH_OFFSET:
            self._length = value
            self._restart()
        elif offset == FINALIZE_OFFSET:
            self._finalise()
        else:
            super()._control(offset, value, width_bits)

    def _check_writable(self) -> None:
        if self._state is not None:
            raise KernelError(f"{self.name}: digest already finalised")
        if self._bytes_seen >= self._length:
            raise KernelError(f"{self.name}: more data than the declared length")

    def _absorb(self, data: bytes, width_bits: int) -> None:
        # Words are taken in order up to the one that completes the
        # message (its excess bytes dropped); the word after it is refused.
        self._check_writable()
        room = self._length - self._bytes_seen
        word_bytes = width_bits >> 3
        taken = data[:room]
        self._hash.update(taken)
        self._bytes_seen += len(taken)
        if len(data) > -(-room // word_bytes) * word_bytes:
            self._check_writable()

    def _finalise(self) -> None:
        if self._state is not None:
            return
        if self._bytes_seen != self._length:
            raise KernelError(
                f"{self.name}: finalise after {self._bytes_seen} of {self._length} bytes"
            )
        self._state = struct.unpack(">5I", self._hash.digest())

    def read_register(self, offset: int) -> int:
        if offset in REG_H:
            if self._state is None:
                raise KernelError(f"{self.name}: digest not finalised")
            return self._state[REG_H.index(offset)]
        if offset == REG_BLOCKS:
            if self._state is None:
                return self._bytes_seen // 64
            return padded_blocks(self._length)
        return 0

    @property
    def digest_ready(self) -> bool:
        return self._state is not None

    def digest(self) -> bytes:
        """The full 20-byte digest (testing convenience)."""
        if self._state is None:
            raise KernelError(f"{self.name}: digest not finalised")
        return struct.pack(">5I", *self._state)
