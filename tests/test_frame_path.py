"""The block frame path: BitLinker's per-placement memo, the Bitstream's
owned frame block, and the FAR-word row lookup the ICAP commits through."""

import numpy as np
import pytest

import repro.bitstream.bitlinker as bitlinker
from repro.bitstream.bitlinker import BitLinker, Placement, placement_block
from repro.bitstream.bitstream import Bitstream, BitstreamKind
from repro.bitstream.component import ComponentConfig
from repro.bitstream.generator import initialize_static_configuration
from repro.engine import fastpath
from repro.errors import BitstreamError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP7
from repro.fabric.frames import BlockType, FrameAddress, FrameGeometry
from repro.fabric.region import find_region
from repro.fabric.resources import ResourceVector
from repro.scenarios.rigs import build_rig64


def test_equal_components_share_one_placement_block(monkeypatch):
    with fastpath.forced_on():
        streams = []
        for _ in range(2):
            _, manager = build_rig64()
            placements = [Placement(manager.component("sha1"), 0, 0)]
            calls = []
            original = bitlinker.placement_frame_content

            def counting(*args, _original=original, _calls=calls):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(bitlinker, "placement_frame_content", counting)
            streams.append(manager.bitlinker.link(placements).to_words())
            monkeypatch.undo()
    assert streams[0].tobytes() == streams[1].tobytes()
    # The second rig rebuilt an equal component: its link reuses the block.
    assert calls == []


def test_the_placement_memo_stays_bounded():
    region = find_region(XC2VP7, 28, 11, bram_blocks=6)
    memory = ConfigMemory(XC2VP7)
    initialize_static_configuration(memory, region, seed="memo-bound")
    linker = BitLinker(region, memory.snapshot())
    bound = placement_block.cache_info().maxsize
    assert bound is not None
    with fastpath.forced_on():
        for index in range(bound + 8):
            component = ComponentConfig(
                name=f"memo{index}", width=1, height=1, resources=ResourceVector(slices=1)
            )
            linker.link([Placement(component, index % region.rect.width, 0)])
    assert placement_block.cache_info().currsize <= bound


def test_a_bitstream_keeps_its_own_copy_of_caller_frames():
    words = XC2VP7.words_per_frame
    data = [np.full(words, 7, dtype=np.uint32), np.full(words, 9, dtype=np.uint32)]
    frames = [(FrameAddress(BlockType.CLB, major, 0), row) for major, row in enumerate(data)]
    stream = Bitstream(XC2VP7.name, BitstreamKind.PARTIAL_COMPLETE, frames)
    before = stream.to_words().copy()
    for row in data:
        row[:] = 0
    assert np.array_equal(stream.to_words(), before)
    assert [int(row[0]) for _, row in stream.frames] == [7, 9]
    assert not stream.block.flags.writeable
    with pytest.raises(ValueError):
        stream.frames[0][1][0] = 1


def test_rows_of_fars_matches_frame_rows_and_names_a_missing_frame():
    geometry = FrameGeometry(XC2VP7)
    order = geometry.frame_order()
    picked = [order[i] for i in (0, 5, len(order) - 1, 3)]
    fars = np.array([address.packed() for address in picked], dtype=np.uint32)
    assert np.array_equal(geometry.rows_of_fars(fars), geometry.frame_rows(picked))
    stray = np.append(fars, np.uint32(FrameAddress(BlockType.CLB, 999, 0).packed()))
    with pytest.raises(BitstreamError, match=r"CLB\[999\]\.0 outside"):
        geometry.rows_of_fars(stray)


def test_a_region_shares_its_frame_arrays_read_only():
    a = find_region(XC2VP7, 28, 11, bram_blocks=6)
    b = find_region(XC2VP7, 28, 11, bram_blocks=6, name="other")
    assert a.frame_rows is b.frame_rows
    for array in (a.frame_rows, a.frame_fars, a.frame_columns):
        assert not array.flags.writeable
    geometry = FrameGeometry(XC2VP7)
    assert np.array_equal(a.frame_rows, geometry.frame_rows(a.frame_addresses))
    assert np.array_equal(a.frame_fars, [address.packed() for address in a.frame_addresses])
