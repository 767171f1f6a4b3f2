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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError, CRCError
from ..fabric.frames import check_far_words

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

    :meth:`write_register` appends scalar words; :meth:`write_frames`
    queues a whole FAR/FDRI run as one array chunk and feeds its bytes to
    ``zlib.crc32`` in one pass.  ``finish`` concatenates the chunks once.
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

    def write_frames(self, fars: np.ndarray, block: np.ndarray) -> None:
        """Emit the FAR/FDRI packet pairs for a block of frame writes.

        The stream equals ``write_register(FAR, [fars[i]])`` followed by
        ``write_register(FDRI, block[i])`` per frame; the headers, payload
        block and running-CRC bytes are each built in one array pass.  A
        frame wider than a Type-1 packet raises :class:`BitstreamError`.
        """
        count = len(fars)
        if not count:
            return
        fars = np.asarray(fars, dtype=np.uint32)
        block = np.ascontiguousarray(block)
        words_per_frame = block.shape[1]
        # Stream layout per frame: FAR header, FAR word, FDRI header, payload.
        out = np.empty((count, 3 + words_per_frame), dtype=np.uint32)
        out[:, 0] = _type1_header(_OP_WRITE, int(Register.FAR), 1)
        out[:, 1] = fars
        out[:, 2] = _type1_header(_OP_WRITE, int(Register.FDRI), words_per_frame)
        out[:, 3:] = block
        # Running CRC consumes, per frame: FAR register id (2 bytes LE), the
        # FAR word, the FDRI register id, then the payload — the byte
        # sequence write_register feeds zlib.crc32 for each register write.
        crc_bytes = np.empty((count, 8 + 4 * words_per_frame), dtype=np.uint8)
        crc_bytes[:, 0:2] = np.frombuffer(int(Register.FAR).to_bytes(2, "little"), np.uint8)
        crc_bytes[:, 2:6] = fars.astype("<u4", copy=False).view(np.uint8).reshape(count, 4)
        crc_bytes[:, 6:8] = np.frombuffer(int(Register.FDRI).to_bytes(2, "little"), np.uint8)
        crc_bytes[:, 8:] = (
            block.astype("<u4", copy=False).view(np.uint8).reshape(count, 4 * words_per_frame)
        )
        self._crc = zlib.crc32(crc_bytes, self._crc)
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
    #: Frame writes in stream order, as runs of ``(FAR words, payload
    #: block)``: a uint32 vector and a ``(len(FAR words), width)`` uint32
    #: block.  A bulk FAR/FDRI run is one entry; any other frame write is a
    #: run of one.
    runs: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    #: Per run, where its payload sits in the stream: ``(index of the first
    #: payload word, words from one frame's payload to the next)``.
    layout: List[Tuple[int, int]] = field(default_factory=list)


class PacketReader:
    """Parses a word stream, verifying the CRC: the one packet-header
    parser of the toolchain."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = np.asarray(words, dtype=np.uint32)

    def scan(self) -> DecodedStream:
        """Single-pass decode: headers by index arithmetic, payloads as
        array views, CRC over little-endian byte views.

        Raises :class:`BitstreamError` on a malformed stream (a header
        naming no :class:`Register` or a FAR word naming no block type
        included) and :class:`CRCError` on a checksum mismatch, doing
        O(packets) Python work.  Only the stream content consumed by
        :meth:`repro.bitstream.bitstream.Bitstream.from_words` — the
        IDCODE and the FAR/FDRI frame writes — is collected, with each
        run's position in the stream.

        FAR words are checked (:func:`~repro.fabric.frames.check_far_words`)
        *as they are parsed*, so a malformed frame address fails the
        stream at the packet that carries it.
        """
        words = np.ascontiguousarray(self._words, dtype="<u4")
        n = int(words.size)
        # Skip dummies up to the sync word: argmax gives the first
        # non-dummy word (index 0 when there is none).
        idx = int(np.argmax(words != DUMMY_WORD)) if n else 0
        first = int(words[idx]) if n else DUMMY_WORD
        if first == DUMMY_WORD:
            raise BitstreamError("no sync word found")
        if first != SYNC_WORD:
            raise BitstreamError(f"unexpected word {first:#010x} before sync")
        idx += 1
        crc = 0
        pending_register: Register | None = None
        current_far: Optional[int] = None
        decoded = DecodedStream()
        rcrc = int(Command.RCRC)
        far1_header = _type1_header(_OP_WRITE, int(Register.FAR), 1)
        far_id = int(Register.FAR).to_bytes(2, "little")
        fdri_id = int(Register.FDRI).to_bytes(2, "little")
        while idx < n:
            header = int(words[idx])
            # Bulk-frame run: a FAR(1) write followed by a Type-1 FDRI burst
            # is the repeating unit frame writers emit.  Consume the whole
            # run of identically-shaped frames with a few array ops and one
            # CRC pass; any deviation (corrupt header, dummy word, end of
            # run) falls back to the generic per-packet decode below, which
            # reports the malformed packet.
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
                    payloads = view[:run, 3:]
                    crc_bytes = np.empty((run, 8 + 4 * frame_words), dtype=np.uint8)
                    crc_bytes[:, 0:2] = np.frombuffer(far_id, np.uint8)
                    crc_bytes[:, 2:6] = fars.view(np.uint8).reshape(run, 4)
                    crc_bytes[:, 6:8] = np.frombuffer(fdri_id, np.uint8)
                    crc_bytes[:, 8:] = payloads.view(np.uint8)
                    crc = zlib.crc32(crc_bytes, crc)
                    check_far_words(fars)
                    current_far = int(fars[-1])
                    decoded.runs.append((fars.view(np.uint32), payloads.view(np.uint32)))
                    decoded.layout.append((idx + 3, stride))
                    pending_register = Register.FDRI
                    idx += stride * run
                    continue
            idx += 1
            if header == DUMMY_WORD:
                continue
            ptype = header >> 29
            opcode = (header >> 27) & 0x3
            if ptype == _TYPE1:
                try:
                    register = Register((header >> 13) & 0x3FFF)
                except ValueError:
                    raise BitstreamError(f"unknown register in header {header:#010x}") from None
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
            start = idx
            payload = words[start : start + count]
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
                check_far_words(payload[:1])
                current_far = int(payload[0])
            elif register == Register.FDRI:
                if current_far is None:
                    raise BitstreamError("FDRI write before any FAR write")
                decoded.runs.append(
                    (np.array([current_far], dtype=np.uint32), payload.view(np.uint32)[None, :])
                )
                decoded.layout.append((start, count))
        return decoded
