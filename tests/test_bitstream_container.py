"""Tests for the Bitstream container and serialisation."""

import numpy as np
import pytest

from repro.bitstream.bitstream import Bitstream, BitstreamKind, device_idcode
from repro.errors import BitstreamError
from repro.fabric.device import XC2VP4, XC2VP7
from repro.fabric.frames import BlockType, FrameAddress


def make_stream(device=XC2VP4, majors=(0, 1), value=0x11):
    frames = []
    words = device.words_per_frame
    for major in majors:
        frames.append(
            (FrameAddress(BlockType.CLB, major, 0), np.full(words, value + major, dtype=np.uint32))
        )
    return Bitstream(device_name=device.name, kind=BitstreamKind.PARTIAL_COMPLETE, frames=frames)


def test_idcodes_distinct():
    codes = {device_idcode(n) for n in ("XC2VP4", "XC2VP7", "XC2VP30")}
    assert len(codes) == 3


def test_idcode_unknown_device_is_stable():
    assert device_idcode("FOO") == device_idcode("foo")


def test_frame_size_validated():
    with pytest.raises(BitstreamError):
        Bitstream(
            device_name="XC2VP4",
            kind=BitstreamKind.FULL,
            frames=[(FrameAddress(BlockType.CLB, 0, 0), np.zeros(3, dtype=np.uint32))],
        )


def test_roundtrip_preserves_frames():
    stream = make_stream()
    out = Bitstream.from_words(stream.to_words())
    assert out.device_name == "XC2VP4"
    assert out.addresses() == stream.addresses()
    for (a1, d1), (a2, d2) in zip(stream.frames, out.frames):
        assert a1 == a2
        assert np.array_equal(d1, d2)


def test_word_count_larger_than_payload():
    stream = make_stream()
    assert stream.word_count > stream.payload_words
    assert stream.byte_size == stream.word_count * 4


def test_frame_data_lookup():
    stream = make_stream()
    addr = stream.addresses()[1]
    assert stream.frame_data(addr)[0] == 0x12


def test_frame_data_missing_raises():
    stream = make_stream()
    with pytest.raises(BitstreamError):
        stream.frame_data(FrameAddress(BlockType.CLB, 99, 0))


def test_kind_flags():
    stream = make_stream()
    assert stream.is_partial
    assert not stream.is_differential
    diff = Bitstream("XC2VP4", BitstreamKind.PARTIAL_DIFFERENTIAL, frames=list(stream.frames))
    assert diff.is_differential


def test_from_words_unknown_idcode():
    stream = make_stream()
    words = stream.to_words()
    # Replace the idcode payload with junk: parse must fail before CRC
    # (the CRC covers the idcode, so corrupting it raises either way).
    idcode = device_idcode("XC2VP4")
    idx = int(np.where(words == idcode)[0][0])
    words = words.copy()
    words[idx] = 0x9999
    with pytest.raises(BitstreamError):
        Bitstream.from_words(words)
