"""Hardware implementation of Bob Jenkins' lookup2 hash.

The paper's second application: a public-domain hash returning a 32-bit
value for a variable-length key (Dr. Dobb's Journal, Sept. 1997).  Here the
*whole* hash function runs in the dynamic area; the CPU only streams key
words in and reads the digest back.

Protocol: write the key length (bytes) to LENGTH, optionally an init value
to INIT, stream the key packed little-endian into data words, then read the
result register.  The kernel consumes 12-byte blocks as they complete and
applies the final mix when the full key has arrived.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from ..errors import KernelError
from .base import BaseKernel

REG_RESULT = 0x0
REG_BYTES_SEEN = 0x4
LENGTH_OFFSET = 0x8
INIT_OFFSET = 0xC

_MASK = 0xFFFFFFFF
GOLDEN_RATIO = 0x9E3779B9


def _mix_groups(a: int, b: int, c: int, data: bytes) -> tuple[int, int, int]:
    """Add each 12-byte group of ``data`` into ``(a, b, c)`` and run the
    lookup2 96-bit mixer on it (all arithmetic mod 2**32)."""
    for x, y, z in struct.iter_unpack("<3I", data):
        a = (a + x) & _MASK
        b = (b + y) & _MASK
        c = (c + z) & _MASK
        a = (a - b - c) & _MASK; a ^= c >> 13
        b = (b - c - a) & _MASK; b ^= (a << 8) & _MASK
        c = (c - a - b) & _MASK; c ^= b >> 13
        a = (a - b - c) & _MASK; a ^= c >> 12
        b = (b - c - a) & _MASK; b ^= (a << 16) & _MASK
        c = (c - a - b) & _MASK; c ^= b >> 5
        a = (a - b - c) & _MASK; a ^= c >> 3
        b = (b - c - a) & _MASK; b ^= (a << 10) & _MASK
        c = (c - a - b) & _MASK; c ^= b >> 15
    return a, b, c


def _final_mix(a: int, b: int, c: int, length: int, tail: bytes) -> int:
    """Mix the last ``length % 12`` key bytes and the key length: the tail
    fills ``a`` and ``b`` from their low byte up, and ``c`` from its second
    byte, the first byte of ``c`` being reserved for the length."""
    group = (tail[:8].ljust(8, b"\0") + b"\0" + tail[8:11]).ljust(12, b"\0")
    return _mix_groups(a, b, (c + length) & _MASK, group)[2]


def lookup2(key: bytes, initval: int = 0) -> int:
    """Batch lookup2, bit-exact to the published C code."""
    full = len(key) - len(key) % 12
    a, b, c = _mix_groups(GOLDEN_RATIO, GOLDEN_RATIO, initval & _MASK, key[:full])
    return _final_mix(a, b, c, len(key), key[full:])


class JenkinsHashKernel(BaseKernel):
    """Streaming lookup2 core."""

    name = "lookup2"
    SLICES_32 = 612
    PIPELINE_DEPTH = 12  # three mix rounds of four stages

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._length = 0
        self._initval = 0
        self._restart()

    def _restart(self) -> None:
        self._buffer = b""
        self._a = self._b = GOLDEN_RATIO
        self._c = self._initval & _MASK
        self._bytes_seen = 0
        self._result: int | None = None

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        if offset == LENGTH_OFFSET:
            self._length = value & _MASK
            self._restart()
            if self._length == 0:
                self._finalise()
        elif offset == INIT_OFFSET:
            self._initval = value & _MASK
            self._restart()
        else:
            super()._control(offset, value, width_bits)

    def _check_writable(self) -> None:
        if self._result is not None:
            raise KernelError(f"{self.name}: key already finalised; write LENGTH to restart")
        if self._bytes_seen >= self._length:
            raise KernelError(f"{self.name}: more data than the declared length")

    def _absorb(self, data: bytes, width_bits: int) -> None:
        # Words are taken in order up to the one that completes the key
        # (its excess bytes dropped); the word after it is refused.
        self._check_writable()
        room = self._length - self._bytes_seen
        word_bytes = width_bits >> 3
        taken = data[:room]
        self._bytes_seen += len(taken)
        key = self._buffer + taken
        # Every full group is mixed as it completes; the last length%12
        # bytes wait for the final mix.
        full = len(key) - len(key) % 12
        self._a, self._b, self._c = _mix_groups(self._a, self._b, self._c, key[:full])
        self._buffer = key[full:]
        if self._bytes_seen == self._length:
            self._finalise()
        if len(data) > -(-room // word_bytes) * word_bytes:
            self._check_writable()

    def _finalise(self) -> None:
        self._result = _final_mix(self._a, self._b, self._c, self._length, self._buffer)
        self._buffer = b""

    def read_register(self, offset: int) -> int:
        if offset == REG_RESULT:
            if self._result is None:
                raise KernelError(f"{self.name}: digest not ready")
            return self._result
        if offset == REG_BYTES_SEEN:
            return self._bytes_seen
        return 0

    @property
    def result_ready(self) -> bool:
        return self._result is not None


def key_to_words(key: bytes, word_bytes: int = 4) -> List[int]:
    """Pack a key little-endian into bus words (zero-padded tail)."""
    pad = b"\0" * (-len(key) % word_bytes)
    return np.frombuffer(key + pad, f"<u{word_bytes}").tolist()
