"""Word-at-a-time references for the hardware-kernel datapaths.

``repro.kernels`` feeds every kernel through one block datapath: lookup2
absorbs whole 12-byte groups, SHA-1 streams through ``hashlib``, and the
pattern matcher and image kernels map byte lanes with one array or table
operation per call.  The classes here are the per-word state machines
those datapaths replaced, kept verbatim: each data word is split into
byte lanes, the lanes are pushed one at a time, and output words are
packed as they complete.  :meth:`OracleKernel.consume_block` replays a
block one :meth:`consume` at a time, as the dock's scalar loop would.

Also kept: the batch lookup2 with its 96-bit ``_mix``, and the RFC 3174
``sha1_compress`` with its padding loop.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, List, Sequence

import numpy as np

from repro.errors import KernelError
from repro.kernels.pattern_match import pattern_to_columns


class OracleKernel:
    """Output queue and the lane split/pack helpers of the per-word kernels."""

    name = "kernel"

    def __init__(self) -> None:
        self._out: Deque[int] = deque()

    def reset(self) -> None:
        self._out.clear()

    def produce(self) -> List[int]:
        drained = list(self._out)
        self._out.clear()
        return drained

    def consume_block(self, values: np.ndarray, width_bits: int, offset: int = 0) -> List[int]:
        """Replay the per-word protocol: ``consume`` each word, then drain."""
        for value in values:
            self.consume(int(value), width_bits, offset)
        return self.produce()

    def read_register(self, offset: int) -> int:
        return 0

    def _emit(self, word: int) -> None:
        self._out.append(word)

    @staticmethod
    def _split_words(value: int, width_bits: int, chunk_bits: int) -> List[int]:
        """Split a bus word into little-endian chunks of ``chunk_bits``."""
        if width_bits % chunk_bits:
            raise KernelError(f"{width_bits}-bit word does not split into {chunk_bits}-bit chunks")
        mask = (1 << chunk_bits) - 1
        return [(value >> (i * chunk_bits)) & mask for i in range(width_bits // chunk_bits)]

    @staticmethod
    def _pack_words(chunks: List[int], chunk_bits: int) -> int:
        value = 0
        for index, chunk in enumerate(chunks):
            value |= (chunk & ((1 << chunk_bits) - 1)) << (index * chunk_bits)
        return value


# -- lookup2 -----------------------------------------------------------------------

REG_RESULT = 0x0
REG_BYTES_SEEN = 0x4
HASH_LENGTH_OFFSET = 0x8
INIT_OFFSET = 0xC

_MASK = 0xFFFFFFFF
GOLDEN_RATIO = 0x9E3779B9


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The lookup2 96-bit mixer (all arithmetic mod 2**32)."""
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


def lookup2(key: bytes, initval: int = 0) -> int:
    """Reference lookup2 (batch form), bit-exact to the published C code."""
    a = b = GOLDEN_RATIO
    c = initval & _MASK
    length = len(key)
    pos = 0
    remaining = length
    while remaining >= 12:
        a = (a + int.from_bytes(key[pos : pos + 4], "little")) & _MASK
        b = (b + int.from_bytes(key[pos + 4 : pos + 8], "little")) & _MASK
        c = (c + int.from_bytes(key[pos + 8 : pos + 12], "little")) & _MASK
        a, b, c = _mix(a, b, c)
        pos += 12
        remaining -= 12
    c = (c + length) & _MASK
    tail = key[pos:]
    if remaining >= 11:
        c = (c + (tail[10] << 24)) & _MASK
    if remaining >= 10:
        c = (c + (tail[9] << 16)) & _MASK
    if remaining >= 9:
        c = (c + (tail[8] << 8)) & _MASK
    # the first byte of c is reserved for the length
    if remaining >= 8:
        b = (b + (tail[7] << 24)) & _MASK
    if remaining >= 7:
        b = (b + (tail[6] << 16)) & _MASK
    if remaining >= 6:
        b = (b + (tail[5] << 8)) & _MASK
    if remaining >= 5:
        b = (b + tail[4]) & _MASK
    if remaining >= 4:
        a = (a + (tail[3] << 24)) & _MASK
    if remaining >= 3:
        a = (a + (tail[2] << 16)) & _MASK
    if remaining >= 2:
        a = (a + (tail[1] << 8)) & _MASK
    if remaining >= 1:
        a = (a + tail[0]) & _MASK
    a, b, c = _mix(a, b, c)
    return c


class JenkinsHashKernel(OracleKernel):
    """Streaming lookup2 core, one data word at a time."""

    name = "lookup2"

    def __init__(self) -> None:
        super().__init__()
        self._length = 0
        self._initval = 0
        self._restart()

    def reset(self) -> None:
        super().reset()
        self._length = 0
        self._initval = 0
        self._restart()

    def _restart(self) -> None:
        self._buffer = bytearray()
        self._a = self._b = GOLDEN_RATIO
        self._c = self._initval & _MASK
        self._bytes_seen = 0
        self._blocks_done = 0
        self._result: int | None = None

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset == HASH_LENGTH_OFFSET:
            self._length = value & _MASK
            self._restart()
            if self._length == 0:
                self._finalise()
            return
        if offset == INIT_OFFSET:
            self._initval = value & _MASK
            self._restart()
            return
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        if self._result is not None:
            raise KernelError(f"{self.name}: key already finalised; write LENGTH to restart")
        incoming = bytes(self._split_words(value, width_bits, 8))
        take = min(len(incoming), self._length - self._bytes_seen)
        if take <= 0:
            raise KernelError(f"{self.name}: more data than the declared length")
        self._buffer.extend(incoming[:take])
        self._bytes_seen += take
        self._drain_blocks()
        if self._bytes_seen == self._length:
            self._finalise()

    def _drain_blocks(self) -> None:
        # lookup2 mixes exactly length//12 full blocks; the remaining
        # length%12 bytes stay buffered for the final mix.
        blocks_allowed = self._length // 12
        while len(self._buffer) >= 12 and self._blocks_done < blocks_allowed:
            block = bytes(self._buffer[:12])
            del self._buffer[:12]
            self._blocks_done += 1
            self._a = (self._a + int.from_bytes(block[0:4], "little")) & _MASK
            self._b = (self._b + int.from_bytes(block[4:8], "little")) & _MASK
            self._c = (self._c + int.from_bytes(block[8:12], "little")) & _MASK
            self._a, self._b, self._c = _mix(self._a, self._b, self._c)

    def _finalise(self) -> None:
        a, b, c = self._a, self._b, self._c
        tail = bytes(self._buffer)
        remaining = len(tail)
        c = (c + self._length) & _MASK
        if remaining >= 11:
            c = (c + (tail[10] << 24)) & _MASK
        if remaining >= 10:
            c = (c + (tail[9] << 16)) & _MASK
        if remaining >= 9:
            c = (c + (tail[8] << 8)) & _MASK
        if remaining >= 8:
            b = (b + (tail[7] << 24)) & _MASK
        if remaining >= 7:
            b = (b + (tail[6] << 16)) & _MASK
        if remaining >= 6:
            b = (b + (tail[5] << 8)) & _MASK
        if remaining >= 5:
            b = (b + tail[4]) & _MASK
        if remaining >= 4:
            a = (a + (tail[3] << 24)) & _MASK
        if remaining >= 3:
            a = (a + (tail[2] << 16)) & _MASK
        if remaining >= 2:
            a = (a + (tail[1] << 8)) & _MASK
        if remaining >= 1:
            a = (a + tail[0]) & _MASK
        _, _, c = _mix(a, b, c)
        self._result = c
        self._buffer.clear()

    def read_register(self, offset: int) -> int:
        if offset == REG_RESULT:
            if self._result is None:
                raise KernelError(f"{self.name}: digest not ready")
            return self._result
        if offset == REG_BYTES_SEEN:
            return self._bytes_seen
        return 0


# -- SHA-1 -------------------------------------------------------------------------

REG_H = (0x0, 0x4, 0x8, 0xC, 0x10)
REG_BLOCKS = 0x14
SHA_LENGTH_OFFSET = 0x20
FINALIZE_OFFSET = 0x24

_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _rotl(value: int, amount: int) -> int:
    value &= _MASK
    return ((value << amount) | (value >> (32 - amount))) & _MASK


def sha1_compress(state: tuple[int, int, int, int, int], block: bytes) -> tuple[int, int, int, int, int]:
    """One 512-bit SHA-1 compression (RFC 3174 section 6.1)."""
    if len(block) != 64:
        raise KernelError(f"SHA-1 block must be 64 bytes, got {len(block)}")
    w = list(struct.unpack(">16I", block))
    for t in range(16, 80):
        w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
    a, b, c, d, e = state
    for t in range(80):
        if t < 20:
            f = (b & c) | (~b & d)
            k = 0x5A827999
        elif t < 40:
            f = b ^ c ^ d
            k = 0x6ED9EBA1
        elif t < 60:
            f = (b & c) | (b & d) | (c & d)
            k = 0x8F1BBCDC
        else:
            f = b ^ c ^ d
            k = 0xCA62C1D6
        temp = (_rotl(a, 5) + f + e + w[t] + k) & _MASK
        e, d, c, b, a = d, c, _rotl(b, 30), a, temp
    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
        (state[4] + e) & _MASK,
    )


def sha1(message: bytes) -> bytes:
    """Batch SHA-1 through :func:`sha1_compress` and the RFC padding."""
    state = _INIT
    length_bits = len(message) * 8
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", length_bits)
    for pos in range(0, len(padded), 64):
        state = sha1_compress(state, padded[pos : pos + 64])
    return struct.pack(">5I", *state)


class Sha1Kernel(OracleKernel):
    """Streaming SHA-1 core, compressing each 64-byte block as it fills."""

    name = "sha1"

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._length = 0
        self._buffer = bytearray()
        self._bytes_seen = 0
        self._state = _INIT
        self._blocks = 0
        self._final = False

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset == SHA_LENGTH_OFFSET:
            self._length = value
            self._buffer.clear()
            self._bytes_seen = 0
            self._state = _INIT
            self._blocks = 0
            self._final = False
            return
        if offset == FINALIZE_OFFSET:
            self._finalise()
            return
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        if self._final:
            raise KernelError(f"{self.name}: digest already finalised")
        incoming = bytes(self._split_words(value, width_bits, 8))
        take = min(len(incoming), self._length - self._bytes_seen)
        if take <= 0:
            raise KernelError(f"{self.name}: more data than the declared length")
        self._buffer.extend(incoming[:take])
        self._bytes_seen += take
        while len(self._buffer) >= 64:
            block = bytes(self._buffer[:64])
            del self._buffer[:64]
            self._state = sha1_compress(self._state, block)
            self._blocks += 1

    def _finalise(self) -> None:
        if self._final:
            return
        if self._bytes_seen != self._length:
            raise KernelError(
                f"{self.name}: finalise after {self._bytes_seen} of {self._length} bytes"
            )
        length_bits = self._length * 8
        tail = bytes(self._buffer) + b"\x80"
        tail += b"\x00" * ((56 - len(tail) % 64) % 64)
        tail += struct.pack(">Q", length_bits)
        for pos in range(0, len(tail), 64):
            self._state = sha1_compress(self._state, tail[pos : pos + 64])
            self._blocks += 1
        self._buffer.clear()
        self._final = True

    def read_register(self, offset: int) -> int:
        if offset in REG_H:
            if not self._final:
                raise KernelError(f"{self.name}: digest not finalised")
            return self._state[REG_H.index(offset)]
        if offset == REG_BLOCKS:
            return self._blocks
        return 0


# -- pattern matcher -------------------------------------------------------------

FLUSH_OFFSET = 0x10
PATTERN_LO_OFFSET = 0x14
PATTERN_HI_OFFSET = 0x18
REG_POSITIONS = 0x0
REG_BEST = 0x4


class PatternMatchKernel(OracleKernel):
    """Eight-stage 8x8 matcher, shifting one image column at a time."""

    name = "patmatch"

    def __init__(self, pattern: np.ndarray | Sequence[int] | None = None) -> None:
        super().__init__()
        self._pattern_cols: List[int] = [0] * 8
        if pattern is not None:
            arr = np.asarray(pattern)
            if arr.ndim == 2:
                self._pattern_cols = pattern_to_columns(arr)
            else:
                self._pattern_cols = [int(b) & 0xFF for b in arr]
        self._window: Deque[int] = deque(maxlen=8)
        self._counts: List[int] = []
        self._positions = 0
        self._best = 0
        self._out_width = 32

    def reset(self) -> None:
        super().reset()
        self._window.clear()
        self._counts.clear()
        self._positions = 0
        self._best = 0

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset == FLUSH_OFFSET:
            self._flush(width_bits)
            return
        if offset == PATTERN_LO_OFFSET:
            for index, byte in enumerate(self._split_words(value, 32, 8)):
                self._pattern_cols[index] = byte
            return
        if offset == PATTERN_HI_OFFSET:
            for index, byte in enumerate(self._split_words(value, 32, 8)):
                self._pattern_cols[4 + index] = byte
            return
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        self._out_width = width_bits
        for column in self._split_words(value, width_bits, 8):
            self._shift_column(column)

    def _shift_column(self, column: int) -> None:
        self._window.append(column & 0xFF)
        if len(self._window) < 8:
            return
        count = 0
        for win_col, pat_col in zip(self._window, self._pattern_cols):
            count += bin(~(win_col ^ pat_col) & 0xFF).count("1")
        self._positions += 1
        if count > self._best:
            self._best = count
        self._counts.append(count)
        per_word = self._out_width // 8
        if len(self._counts) >= per_word:
            self._emit(self._pack_words(self._counts[:per_word], 8))
            del self._counts[:per_word]

    def _flush(self, width_bits: int) -> None:
        if not self._counts:
            return
        per_word = self._out_width // 8
        padded = self._counts + [0] * (per_word - len(self._counts))
        self._emit(self._pack_words(padded, 8))
        self._counts.clear()

    def read_register(self, offset: int) -> int:
        if offset == REG_POSITIONS:
            return self._positions
        if offset == REG_BEST:
            return self._best
        return 0


# -- image kernels ---------------------------------------------------------------

PARAM_OFFSET = 0x8
REG_PIXELS = 0x0


def saturate_u8(value: int) -> int:
    """Clamp to the 0..255 range."""
    if value < 0:
        return 0
    if value > 255:
        return 255
    return value


class _PackingKernel(OracleKernel):
    """Output pixels packed 4 or 8 per word, one pixel list per data word."""

    def __init__(self) -> None:
        super().__init__()
        self._pending: List[int] = []
        self._pixels = 0
        self._out_width = 32

    def reset(self) -> None:
        super().reset()
        self._pending.clear()
        self._pixels = 0

    def _push_pixels(self, pixels: List[int]) -> None:
        self._pending.extend(pixels)
        self._pixels += len(pixels)
        per_word = self._out_width // 8
        while len(self._pending) >= per_word:
            self._emit(self._pack_words(self._pending[:per_word], 8))
            del self._pending[:per_word]

    def _flush(self) -> None:
        if not self._pending:
            return
        per_word = self._out_width // 8
        padded = self._pending + [0] * (per_word - len(self._pending))
        self._emit(self._pack_words(padded, 8))
        self._pending.clear()

    def read_register(self, offset: int) -> int:
        if offset == REG_PIXELS:
            return self._pixels
        return 0


class BrightnessKernel(_PackingKernel):
    name = "brightness"

    def __init__(self, constant: int = 0) -> None:
        super().__init__()
        self.constant = constant

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset == PARAM_OFFSET:
            raw = value & 0x1FF
            self.constant = raw - 512 if raw & 0x100 else raw
            return
        if offset == FLUSH_OFFSET:
            self._flush()
            return
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        self._out_width = width_bits
        pixels = self._split_words(value, width_bits, 8)
        self._push_pixels([saturate_u8(p + self.constant) for p in pixels])


class BlendKernel(_PackingKernel):
    name = "blend"

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset == FLUSH_OFFSET:
            self._flush()
            return
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        self._out_width = width_bits
        lanes = self._split_words(value, width_bits, 8)
        pixels = [saturate_u8(lanes[i] + lanes[i + 1]) for i in range(0, len(lanes), 2)]
        self._push_pixels(pixels)


class FadeKernel(_PackingKernel):
    name = "fade"

    def __init__(self, factor: float = 0.5) -> None:
        super().__init__()
        self.factor_fx = round(factor * 256)

    def consume(self, value: int, width_bits: int, offset: int = 0) -> None:
        if offset == PARAM_OFFSET:
            self.factor_fx = value & 0x1FF
            return
        if offset == FLUSH_OFFSET:
            self._flush()
            return
        if offset != 0:
            raise KernelError(f"{self.name}: write to unknown offset {offset:#x}")
        self._out_width = width_bits
        lanes = self._split_words(value, width_bits, 8)
        pixels = []
        for i in range(0, len(lanes), 2):
            a, b = lanes[i], lanes[i + 1]
            pixels.append(saturate_u8(((a - b) * self.factor_fx >> 8) + b))
        self._push_pixels(pixels)
