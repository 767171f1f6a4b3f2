"""Tests for frame addressing and intra-frame row mapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BitstreamError
from repro.fabric.device import XC2VP4, XC2VP7
from repro.fabric.frames import BlockType, FrameAddress, FrameGeometry


@pytest.fixture(scope="module")
def geo():
    return FrameGeometry(XC2VP7)


def test_frame_address_pack_unpack():
    addr = FrameAddress(BlockType.BRAM_CONTENT, 3, 17)
    assert FrameAddress.unpacked(addr.packed()) == addr


def test_frame_address_negative_rejected():
    with pytest.raises(BitstreamError):
        FrameAddress(BlockType.CLB, -1, 0)


def test_frame_address_ordering():
    a = FrameAddress(BlockType.CLB, 0, 1)
    b = FrameAddress(BlockType.CLB, 1, 0)
    assert a < b


def test_clb_column_frames_count(geo):
    frames = geo.clb_column_frames(5)
    assert len(frames) == 22
    assert all(f.major == 5 and f.block is BlockType.CLB for f in frames)


def test_clb_column_out_of_range(geo):
    with pytest.raises(BitstreamError):
        geo.clb_column_frames(XC2VP7.clb_cols)


def test_bram_column_frames(geo):
    col = XC2VP7.bram_columns[0].col
    content = geo.bram_column_frames(col, content=True)
    interconnect = geo.bram_column_frames(col, content=False)
    assert len(content) == 64
    assert len(interconnect) == 22
    assert content[0].block is BlockType.BRAM_CONTENT


def test_bram_column_requires_real_column(geo):
    with pytest.raises(BitstreamError):
        geo.bram_column_frames(1)  # no BRAM column at x=1


def test_frames_for_columns_includes_bram(geo):
    col = XC2VP7.bram_columns[1].col
    frames = geo.frames_for_columns(col, col + 1)
    blocks = {f.block for f in frames}
    assert blocks == {BlockType.CLB, BlockType.BRAM_CONTENT, BlockType.BRAM_INTERCONNECT}


def test_frames_for_columns_excluding_bram(geo):
    col = XC2VP7.bram_columns[1].col
    frames = geo.frames_for_columns(col, col + 1, include_bram=False)
    assert {f.block for f in frames} == {BlockType.CLB}
    assert len(frames) == 22


def test_all_frames_matches_device_total(geo):
    assert len(list(geo.all_frames())) == XC2VP7.total_frames == geo.frame_count()


def test_all_frames_unique(geo):
    frames = list(geo.all_frames())
    assert len(frames) == len(set(frames))


def test_row_mask_selects_exact_bits(geo):
    mask = geo.row_mask(1, 2)
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
    set_bits = np.nonzero(bits)[0]
    assert set_bits.min() == 80
    assert set_bits.max() == 159
    assert len(set_bits) == 80


def test_row_mask_is_a_shared_read_only_array(geo):
    mask = geo.row_mask(1, 2)
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = 0
    assert geo.row_mask(1, 2) is mask


def test_frame_index_rejects_a_frame_the_device_lacks(geo):
    assert geo.frame_index(FrameAddress(BlockType.CLB, 0, 0)) == 0
    with pytest.raises(BitstreamError, match="outside"):
        geo.frame_index(FrameAddress(BlockType.CLB, 999, 0))


def test_row_mask_empty_range(geo):
    assert not geo.row_mask(5, 5).any()


def test_row_mask_full_height_covers_all_rows(geo):
    mask = geo.row_mask(0, XC2VP7.clb_rows)
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
    assert bits[: XC2VP7.clb_rows * 80].all()
    # padding bits beyond the last row stay clear
    assert not bits[XC2VP7.clb_rows * 80 :].any()


def test_row_mask_invalid_range(geo):
    with pytest.raises(BitstreamError):
        geo.row_mask(3, 2_000)


@given(st.integers(0, 39), st.integers(0, 39))
def test_row_mask_popcount_matches_span(row_a, row_b):
    geo = FrameGeometry(XC2VP4)
    row0, row1 = sorted((row_a, row_b))
    mask = geo.row_mask(row0, row1)
    bits = int(np.unpackbits(mask.view(np.uint8)).sum())
    assert bits == (row1 - row0) * XC2VP4.bits_per_frame_row


@given(st.integers(0, 3), st.integers(0, 200), st.integers(0, 255))
def test_pack_unpack_roundtrip_property(block, major, minor):
    addr = FrameAddress(BlockType(block % 3), major, minor)
    assert FrameAddress.unpacked(addr.packed()) == addr
