"""The block frame path: BitLinker's per-placement memo, the Bitstream's
owned frame block, the FAR-word row lookup the ICAP commits through, and
the packet codec against the per-frame oracles on every rig stream."""

import numpy as np
import pytest

import repro.bitstream.bitlinker as bitlinker
from repro.bitstream.bitlinker import BitLinker, Placement, placement_block
from repro.bitstream.bitstream import Bitstream, BitstreamKind, decode_frames
from repro.bitstream.component import ComponentConfig
from repro.bitstream.generator import initialize_static_configuration
from repro.bitstream.packets import PacketWriter
from repro.errors import BitstreamError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP7
from repro.fabric.frames import BlockType, FrameAddress, FrameGeometry
from repro.fabric.region import find_region
from repro.fabric.resources import ResourceVector
from repro.faults import payload_word_indices
from repro.scenarios.rigs import build_rig32, build_rig64

from .oracles import frame_path as oracle


def test_equal_components_share_one_placement_block(monkeypatch):
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


@pytest.fixture(scope="module")
def rig_streams():
    """Every stream the two rigs produce: the clear stream, plus the
    complete and the differential link of every registered kernel."""
    streams = []
    for build in (build_rig32, build_rig64):
        _, manager = build()
        streams.append(manager.bitlinker.clear_bitstream())
        for name in sorted(manager._library):
            component = manager.component(name)
            streams.append(manager._link(component, differential=False))
            streams.append(manager._link(component, differential=True))
    return streams


def test_payload_word_indices_match_the_header_walk(rig_streams):
    assert len(rig_streams) == 24
    for stream in rig_streams:
        words = stream.to_words()
        indices = payload_word_indices(words)
        assert np.array_equal(indices, oracle.payload_word_indices(words)), stream.description
        assert indices.size == stream.payload_words


def test_rig_streams_serialise_and_decode_as_the_packet_oracles(rig_streams, monkeypatch):
    shipped = [stream.to_words() for stream in rig_streams]
    monkeypatch.setattr(PacketWriter, "write_frames", oracle.write_frames)
    for stream, words in zip(rig_streams, shipped):
        assert words.tobytes() == stream.to_words().tobytes(), stream.description
        device, runs = decode_frames(words)
        want_device, want_runs = oracle.decode_frames(words)
        assert device == want_device
        assert np.array_equal(
            np.concatenate([fars for fars, _ in runs]),
            np.concatenate([fars for fars, _ in want_runs]),
        )
        assert np.array_equal(
            np.concatenate([block for _, block in runs]),
            np.concatenate([block for _, block in want_runs]),
        )
