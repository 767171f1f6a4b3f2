"""Configuration packet stream.

Bitstreams are serialised as a stream of 32-bit words using a simplified
Virtex-II Pro packet protocol:

* a **sync word** opens the stream;
* **Type-1 packets** write one or more words to a configuration register
  (CMD, FAR, FDRI, CRC, IDCODE, ...);
* **Type-2 packets** extend the previous Type-1 with a large word count
  (used for long FDRI frame-data bursts);
* a final CRC write checks stream integrity; a DESYNC command closes it.

The on-the-wire layout is faithful in spirit (header word with opcode /
register / word count, followed by payload) so that parsing, CRC checking
and size accounting behave like the real configuration port.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import fastpath
from ..errors import BitstreamError, CRCError

#: Stream synchronisation word (as on Virtex devices).
SYNC_WORD = 0xAA995566
#: Dummy padding word.
DUMMY_WORD = 0xFFFFFFFF

_TYPE1 = 0x1
_TYPE2 = 0x2
_OP_NOP = 0x0
_OP_READ = 0x1
_OP_WRITE = 0x2

#: Max payload words encodable in a Type-1 header.
TYPE1_MAX_WORDS = (1 << 11) - 1


class Register(enum.IntEnum):
    """Configuration registers reachable through packets."""

    CRC = 0x0
    FAR = 0x1
    FDRI = 0x2
    FDRO = 0x3
    CMD = 0x4
    CTL = 0x5
    MASK = 0x6
    STAT = 0x7
    LOUT = 0x8
    COR = 0x9
    IDCODE = 0xC


class Command(enum.IntEnum):
    """Values written to the CMD register."""

    NULL = 0x0
    WCFG = 0x1  # write configuration data
    LFRM = 0x3  # last frame
    RCFG = 0x4  # read configuration data
    START = 0x5
    RCRC = 0x7  # reset CRC
    DESYNC = 0xD


@dataclass(frozen=True)
class Packet:
    """One decoded configuration packet."""

    opcode: int
    register: Register
    payload: tuple[int, ...]

    @property
    def is_write(self) -> bool:
        return self.opcode == _OP_WRITE


def _type1_header(opcode: int, register: int, word_count: int) -> int:
    if word_count > TYPE1_MAX_WORDS:
        raise BitstreamError(f"Type-1 packet too long ({word_count} words)")
    return (_TYPE1 << 29) | (opcode << 27) | ((register & 0x3FFF) << 13) | word_count


def _type2_header(opcode: int, word_count: int) -> int:
    if word_count >= 1 << 27:
        raise BitstreamError(f"Type-2 packet too long ({word_count} words)")
    return (_TYPE2 << 29) | (opcode << 27) | word_count


class PacketWriter:
    """Serialises packets into a word stream, tracking a running CRC.

    Two emission paths produce bit-identical streams: the per-word path of
    :meth:`write_register` (scalar appends, per-word CRC blobs) and — when
    :mod:`repro.engine.fastpath` is enabled — the array path of
    :meth:`write_frames`, which queues a whole FAR/FDRI run as one chunk
    and feeds a single little-endian byte view to ``zlib.crc32``.
    ``finish`` concatenates the chunks once.
    """

    def __init__(self) -> None:
        #: Completed word chunks (np.uint32 arrays), in stream order.
        self._parts: List[np.ndarray] = []
        #: Pending scalar words not yet flushed into a chunk.
        self._tail: List[int] = [DUMMY_WORD, SYNC_WORD]
        self._crc = 0

    def _emit(self, word: int) -> None:
        self._tail.append(word & 0xFFFFFFFF)

    def _emit_array(self, values: np.ndarray) -> None:
        if self._tail:
            self._parts.append(np.array(self._tail, dtype=np.uint32))
            self._tail = []
        self._parts.append(values)

    def _crc_update(self, register: int, payload: Sequence[int]) -> None:
        blob = register.to_bytes(2, "little") + b"".join(
            int(w).to_bytes(4, "little") for w in payload
        )
        self._crc = zlib.crc32(blob, self._crc)

    def write_register(self, register: Register, values: Sequence[int]) -> None:
        """Emit a Type-1 write (with a Type-2 extension for long bursts)."""
        values = [int(v) & 0xFFFFFFFF for v in values]
        if register != Register.CRC:
            self._crc_update(int(register), values)
        if len(values) <= TYPE1_MAX_WORDS:
            self._emit(_type1_header(_OP_WRITE, int(register), len(values)))
            for value in values:
                self._emit(value)
        else:
            # Zero-length Type-1 names the register, Type-2 carries the data.
            self._emit(_type1_header(_OP_WRITE, int(register), 0))
            self._emit(_type2_header(_OP_WRITE, len(values)))
            for value in values:
                self._emit(value)

    def write_frames(self, frames: Sequence[Tuple[object, np.ndarray]]) -> None:
        """Emit the FAR/FDRI packet pairs for a sequence of frame writes.

        Equivalent to ``write_register(FAR, [address.packed()])`` followed
        by ``write_register(FDRI, data)`` per frame.  With the fast path on
        and equal-length Type-1-sized payloads, the headers, payload block
        and the running-CRC byte stream are each built in one array pass.
        """
        if not frames:
            return
        fast_ok = fastpath.enabled()
        if fast_ok:
            lengths = {len(data) for _, data in frames}
            if len(lengths) == 1:
                words_per_frame = lengths.pop()
                if 0 < words_per_frame <= TYPE1_MAX_WORDS:
                    self._write_frames_fast(frames, words_per_frame)
                    return
        for address, data in frames:
            self.write_register(Register.FAR, [address.packed()])
            self.write_register(Register.FDRI, data)

    def _write_frames_fast(self, frames, words_per_frame: int) -> None:
        count = len(frames)
        fars = np.fromiter(
            (address.packed() for address, _ in frames), dtype=np.uint32, count=count
        )
        block = np.stack(
            [np.asarray(data).astype(np.uint32, copy=False) for _, data in frames]
        )
        # Stream layout per frame: FAR header, FAR word, FDRI header, payload.
        out = np.empty((count, 3 + words_per_frame), dtype=np.uint32)
        out[:, 0] = _type1_header(_OP_WRITE, int(Register.FAR), 1)
        out[:, 1] = fars
        out[:, 2] = _type1_header(_OP_WRITE, int(Register.FDRI), words_per_frame)
        out[:, 3:] = block
        # Running CRC consumes, per frame: FAR register id (2 bytes LE), the
        # FAR word, the FDRI register id, then the payload — the exact byte
        # sequence the per-register reference path feeds zlib.crc32.
        crc_bytes = np.empty((count, 8 + 4 * words_per_frame), dtype=np.uint8)
        crc_bytes[:, 0:2] = np.frombuffer(int(Register.FAR).to_bytes(2, "little"), np.uint8)
        crc_bytes[:, 2:6] = fars.astype("<u4", copy=False).view(np.uint8).reshape(count, 4)
        crc_bytes[:, 6:8] = np.frombuffer(int(Register.FDRI).to_bytes(2, "little"), np.uint8)
        crc_bytes[:, 8:] = (
            block.astype("<u4", copy=False).view(np.uint8).reshape(count, 4 * words_per_frame)
        )
        self._crc = zlib.crc32(crc_bytes.tobytes(), self._crc)
        self._emit_array(out.reshape(-1))

    def write_command(self, command: Command) -> None:
        """Write the CMD register."""
        if command == Command.RCRC:
            self._crc = 0
            self._emit(_type1_header(_OP_WRITE, int(Register.CMD), 1))
            self._emit(int(command))
            return
        self.write_register(Register.CMD, [int(command)])

    def write_crc(self) -> None:
        """Emit the current running CRC as a CRC-register write."""
        self._emit(_type1_header(_OP_WRITE, int(Register.CRC), 1))
        self._emit(self._crc)

    def finish(self) -> np.ndarray:
        """Close the stream (CRC + DESYNC) and return the word array."""
        self.write_crc()
        self.write_command(Command.DESYNC)
        self._emit(DUMMY_WORD)
        if self._tail:
            self._parts.append(np.array(self._tail, dtype=np.uint32))
            self._tail = []
        if len(self._parts) == 1:
            return self._parts[0]
        return np.concatenate(self._parts)


@dataclass
class DecodedStream:
    """Outcome of one fast header-indexed scan over a word stream."""

    #: IDCODE carried by the stream (None when absent).
    idcode: Optional[int] = None
    #: (decoded FAR, FDRI payload view) pairs, in stream order.  The FAR is
    #: whatever ``far_decode`` returned (the raw word by default); payloads
    #: are *views* into the scanned array.
    frames: List[Tuple[object, np.ndarray]] = field(default_factory=list)


class PacketReader:
    """Parses a word stream back into packets, verifying the CRC."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = np.asarray(words, dtype=np.uint32)
        self._crc = 0

    def packets(self) -> Iterator[Packet]:
        """Decode all packets; raises :class:`CRCError` on a bad checksum."""
        idx = 0
        words = self._words
        n = len(words)
        # Skip dummies up to the sync word.
        while idx < n and int(words[idx]) != SYNC_WORD:
            if int(words[idx]) != DUMMY_WORD:
                raise BitstreamError(f"unexpected word {int(words[idx]):#010x} before sync")
            idx += 1
        if idx == n:
            raise BitstreamError("no sync word found")
        idx += 1
        pending_register: Register | None = None
        while idx < n:
            header = int(words[idx])
            idx += 1
            if header == DUMMY_WORD:
                continue
            ptype = header >> 29
            opcode = (header >> 27) & 0x3
            if ptype == _TYPE1:
                register = Register((header >> 13) & 0x3FFF)
                count = header & 0x7FF
                payload = tuple(int(w) for w in words[idx : idx + count])
                if len(payload) != count:
                    raise BitstreamError("truncated Type-1 packet")
                idx += count
                pending_register = register
                yield from self._deliver(opcode, register, payload)
            elif ptype == _TYPE2:
                if pending_register is None:
                    raise BitstreamError("Type-2 packet without preceding Type-1")
                count = header & ((1 << 27) - 1)
                payload = tuple(int(w) for w in words[idx : idx + count])
                if len(payload) != count:
                    raise BitstreamError("truncated Type-2 packet")
                idx += count
                yield from self._deliver(opcode, pending_register, payload)
            else:
                raise BitstreamError(f"unknown packet type {ptype} in header {header:#010x}")

    def scan(self, far_decode=None) -> DecodedStream:
        """Vectorized single-pass decode: headers by index arithmetic,
        payloads as array views, CRC over little-endian byte views.

        Produces exactly the same accept/reject behaviour as iterating
        :meth:`packets` (same error types and messages, including
        :class:`CRCError` on a corrupted stream) while doing O(packets)
        Python work instead of O(words).  Only the stream content consumed
        by :meth:`repro.bitstream.bitstream.Bitstream.from_words` — the
        IDCODE and the FAR/FDRI frame writes — is collected.

        ``far_decode`` (e.g. ``FrameAddress.unpacked``) is applied to each
        FAR payload word *as it is parsed*, so malformed frame addresses
        surface at the same point in the stream as on the reference path.
        """
        words = np.ascontiguousarray(self._words, dtype="<u4")
        n = int(words.size)
        # Skip dummies up to the sync word.
        nondummy = np.flatnonzero(words != DUMMY_WORD)
        if nondummy.size == 0:
            raise BitstreamError("no sync word found")
        idx = int(nondummy[0])
        first = int(words[idx])
        if first != SYNC_WORD:
            raise BitstreamError(f"unexpected word {first:#010x} before sync")
        idx += 1
        crc = 0
        pending_register: Register | None = None
        current_far: object = None
        decoded = DecodedStream()
        rcrc = int(Command.RCRC)
        if far_decode is None:
            far_decode = int
        far1_header = _type1_header(_OP_WRITE, int(Register.FAR), 1)
        far_id = int(Register.FAR).to_bytes(2, "little")
        fdri_id = int(Register.FDRI).to_bytes(2, "little")
        while idx < n:
            header = int(words[idx])
            # Bulk-frame run: a FAR(1) write followed by a Type-1 FDRI burst
            # is the repeating unit frame writers emit.  Consume the whole
            # run of identically-shaped frames with a few array ops and one
            # CRC pass; any deviation (corrupt header, dummy word, end of
            # run) falls back to the generic per-packet decode below, so
            # malformed streams fail exactly as on the reference path.
            if header == far1_header and idx + 3 < n:
                fdri_header = int(words[idx + 2])
                frame_words = fdri_header & 0x7FF
                stride = 3 + frame_words
                if (
                    frame_words
                    and fdri_header >> 29 == _TYPE1
                    and (fdri_header >> 27) & 0x3 == _OP_WRITE
                    and (fdri_header >> 13) & 0x3FFF == int(Register.FDRI)
                    and idx + stride <= n
                ):
                    run_max = (n - idx) // stride
                    view = words[idx : idx + stride * run_max].reshape(run_max, stride)
                    matches = (view[:, 0] == far1_header) & (view[:, 2] == fdri_header)
                    run = run_max if matches.all() else int(np.argmin(matches))
                    fars = view[:run, 1].astype("<u4")
                    payloads = np.ascontiguousarray(view[:run, 3:])
                    crc_bytes = np.empty((run, 8 + 4 * frame_words), dtype=np.uint8)
                    crc_bytes[:, 0:2] = np.frombuffer(far_id, np.uint8)
                    crc_bytes[:, 2:6] = fars.view(np.uint8).reshape(run, 4)
                    crc_bytes[:, 6:8] = np.frombuffer(fdri_id, np.uint8)
                    crc_bytes[:, 8:] = payloads.view(np.uint8).reshape(run, 4 * frame_words)
                    crc = zlib.crc32(crc_bytes.tobytes(), crc)
                    frame_rows = payloads.view(np.uint32)
                    for row in range(run):
                        current_far = far_decode(int(fars[row]))
                        decoded.frames.append((current_far, frame_rows[row]))
                    pending_register = Register.FDRI
                    idx += stride * run
                    continue
            idx += 1
            if header == DUMMY_WORD:
                continue
            ptype = header >> 29
            opcode = (header >> 27) & 0x3
            if ptype == _TYPE1:
                register = Register((header >> 13) & 0x3FFF)
                count = header & 0x7FF
                kind = "Type-1"
                pending_register = register
            elif ptype == _TYPE2:
                if pending_register is None:
                    raise BitstreamError("Type-2 packet without preceding Type-1")
                register = pending_register
                count = header & ((1 << 27) - 1)
                kind = "Type-2"
            else:
                raise BitstreamError(f"unknown packet type {ptype} in header {header:#010x}")
            payload = words[idx : idx + count]
            if payload.size != count:
                raise BitstreamError(f"truncated {kind} packet")
            idx += count
            if opcode != _OP_WRITE:
                continue
            if register == Register.CRC:
                if count and int(payload[0]) != crc:
                    raise CRCError(
                        f"CRC mismatch: stream says {int(payload[0]):#010x}, computed {crc:#010x}"
                    )
                continue
            if register == Register.CMD and count and int(payload[0]) == rcrc:
                crc = 0
            elif count:
                # Zero-length Type-1 headers (register announcements ahead of
                # a Type-2 burst) carry no data and are not CRC'd.
                crc = zlib.crc32(
                    payload.tobytes(),
                    zlib.crc32(int(register).to_bytes(2, "little"), crc),
                )
            if register == Register.IDCODE and count:
                decoded.idcode = int(payload[0])
            elif register == Register.FAR and count:
                current_far = far_decode(int(payload[0]))
            elif register == Register.FDRI:
                if current_far is None:
                    raise BitstreamError("FDRI write before any FAR write")
                decoded.frames.append((current_far, payload.view(np.uint32)))
        return decoded

    def _deliver(self, opcode: int, register: Register, payload: tuple[int, ...]) -> Iterator[Packet]:
        if opcode == _OP_WRITE and register == Register.CRC:
            if payload and payload[0] != self._crc:
                raise CRCError(
                    f"CRC mismatch: stream says {payload[0]:#010x}, computed {self._crc:#010x}"
                )
            yield Packet(opcode, register, payload)
            return
        if opcode == _OP_WRITE:
            if register == Register.CMD and payload and payload[0] == Command.RCRC:
                self._crc = 0
            elif payload:
                # Zero-length Type-1 headers (register announcements ahead of
                # a Type-2 burst) carry no data and are not CRC'd.
                blob = int(register).to_bytes(2, "little") + b"".join(
                    int(w).to_bytes(4, "little") for w in payload
                )
                self._crc = zlib.crc32(blob, self._crc)
        yield Packet(opcode, register, payload)
