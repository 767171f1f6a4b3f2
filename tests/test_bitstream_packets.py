"""Tests for the configuration packet protocol.

Round trips decode through the packet-level oracle (every register, not
only the frame writes :meth:`PacketReader.scan` collects); malformed
streams go through ``scan`` itself.
"""

import numpy as np
import pytest

from repro.bitstream.bitstream import Bitstream
from repro.bitstream.packets import (
    SYNC_WORD,
    TYPE1_MAX_WORDS,
    Command,
    PacketReader,
    PacketWriter,
    Register,
)
from repro.errors import BitstreamError, CRCError

from .oracles.frame_path import packets


def roundtrip(writer: PacketWriter):
    return list(packets(writer.finish()))


def test_simple_register_write_roundtrip():
    w = PacketWriter()
    w.write_command(Command.RCRC)
    w.write_register(Register.FAR, [0x1234])
    packets = roundtrip(w)
    far = [p for p in packets if p.register is Register.FAR]
    assert far and far[0].payload == (0x1234,)


def test_long_write_uses_type2():
    w = PacketWriter()
    w.write_command(Command.RCRC)
    payload = list(range(TYPE1_MAX_WORDS + 10))
    w.write_register(Register.FDRI, payload)
    packets = roundtrip(w)
    fdri = [p for p in packets if p.register is Register.FDRI and p.payload]
    assert fdri[0].payload == tuple(v & 0xFFFFFFFF for v in payload)


def test_stream_begins_with_sync():
    words = PacketWriter().finish()
    assert SYNC_WORD in (int(w) for w in words[:2])


def test_crc_checked_on_read():
    w = PacketWriter()
    w.write_command(Command.RCRC)
    w.write_register(Register.FAR, [7])
    words = w.finish().copy()
    # Corrupt the FAR payload: CRC check must fail.
    idx = int(np.where(words == 7)[0][0])
    words[idx] = 8
    with pytest.raises(CRCError):
        PacketReader(words).scan()


def test_rcrc_resets_running_crc():
    w = PacketWriter()
    w.write_register(Register.FAR, [1])
    w.write_command(Command.RCRC)
    w.write_register(Register.FAR, [2])
    packets = roundtrip(w)  # must not raise
    assert sum(1 for p in packets if p.register is Register.FAR) == 2


def test_desync_present_at_end():
    packets = roundtrip(PacketWriter())
    cmd_values = [p.payload[0] for p in packets if p.register is Register.CMD and p.payload]
    assert Command.DESYNC in cmd_values


def test_reader_rejects_garbage_before_sync():
    with pytest.raises(BitstreamError):
        PacketReader(np.array([0x123, SYNC_WORD], dtype=np.uint32)).scan()


def test_reader_requires_sync():
    with pytest.raises(BitstreamError):
        PacketReader(np.array([0xFFFFFFFF], dtype=np.uint32)).scan()


#: A Type-1 write of one word to register 0xA, which names no Register.
UNKNOWN_REGISTER_STREAM = np.array(
    [0xFFFFFFFF, SYNC_WORD, (1 << 29) | (2 << 27) | (0xA << 13) | 1, 5], dtype=np.uint32
)


def _far_block_3_stream(bulk):
    """A frame write whose FAR word has block field 3 (no BlockType)."""
    writer = PacketWriter()
    far, payload = 3 << 24, np.zeros(4, dtype=np.uint32)
    if bulk:
        writer.write_frames(np.array([far], dtype=np.uint32), payload[None, :])
    else:
        writer.write_register(Register.FAR, [far])
        writer.write_command(Command.NULL)
        writer.write_register(Register.FDRI, payload)
    return writer.finish()


MALFORMED = {
    "unknown register": (UNKNOWN_REGISTER_STREAM, "unknown register in header 0x30014001"),
    "FAR block 3, bulk run": (_far_block_3_stream(True), "3 is not a valid BlockType"),
    "FAR block 3, single write": (_far_block_3_stream(False), "3 is not a valid BlockType"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_reader_and_from_words_reject_a_field_naming_nothing(case):
    words, message = MALFORMED[case]
    with pytest.raises(BitstreamError, match=message):
        PacketReader(words).scan()
    with pytest.raises(BitstreamError, match=message):
        Bitstream.from_words(words)


def test_reader_skips_leading_dummies_to_the_sync_word():
    stream = PacketWriter().finish()
    padded = np.concatenate([np.full(7, 0xFFFFFFFF, dtype=np.uint32), stream])
    assert PacketReader(padded).scan().runs == PacketReader(stream).scan().runs == []
    with pytest.raises(BitstreamError, match="no sync word"):
        PacketReader(np.zeros(0, dtype=np.uint32)).scan()
    with pytest.raises(BitstreamError, match="no sync word"):
        PacketReader(np.full(5, 0xFFFFFFFF, dtype=np.uint32)).scan()


def test_truncated_packet_detected():
    w = PacketWriter()
    w.write_command(Command.RCRC)
    w.write_register(Register.FDRI, [1, 2, 3, 4])
    words = w.finish()[:-6]  # chop the tail mid-payload is messy; chop CRC
    # removing words mid-stream must raise either truncation or CRC error
    with pytest.raises(BitstreamError):
        PacketReader(words[:5]).scan()


def test_payload_word_masking():
    w = PacketWriter()
    w.write_command(Command.RCRC)
    w.write_register(Register.FAR, [0x1_FFFF_FFFF])
    packets = roundtrip(w)
    far = [p for p in packets if p.register is Register.FAR][0]
    assert far.payload == (0xFFFFFFFF,)
