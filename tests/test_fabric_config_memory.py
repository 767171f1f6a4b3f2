"""Tests for the configuration memory."""

import numpy as np
import pytest

from repro.errors import BitstreamError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP4, XC2VP7, XC2VP30
from repro.fabric.frames import BlockType, FrameAddress


@pytest.fixture
def mem():
    return ConfigMemory(XC2VP4)


def addr(major=0, minor=0):
    return FrameAddress(BlockType.CLB, major, minor)


def changed_addresses(mem, baseline):
    order = mem.geometry.frame_order()
    return [order[row] for row in mem.diff(baseline)]


def frame_of(mem, value):
    return np.full(mem.geometry.words_per_frame, value, dtype=np.uint32)


def test_unwritten_frame_reads_zero(mem):
    assert not mem.read_frame(addr()).any()


def test_write_then_read(mem):
    data = frame_of(mem, 0xABCD1234)
    mem.write_frame(addr(), data)
    assert np.array_equal(mem.read_frame(addr()), data)


def test_read_returns_copy(mem):
    mem.write_frame(addr(), frame_of(mem, 7))
    out = mem.read_frame(addr())
    out[:] = 0
    assert mem.read_frame(addr())[0] == 7


def test_write_wrong_size_rejected(mem):
    with pytest.raises(BitstreamError):
        mem.write_frame(addr(), np.zeros(3, dtype=np.uint32))


def test_snapshot_restore_roundtrip(mem):
    mem.write_frame(addr(0), frame_of(mem, 1))
    snap = mem.snapshot()
    mem.write_frame(addr(0), frame_of(mem, 2))
    mem.write_frame(addr(1), frame_of(mem, 3))
    mem.restore(snap)
    assert mem.read_frame(addr(0))[0] == 1
    assert not mem.read_frame(addr(1)).any()


def test_diff_lists_changed_frames(mem):
    mem.write_frame(addr(0), frame_of(mem, 1))
    baseline = mem.snapshot()
    mem.write_frame(addr(0), frame_of(mem, 2))
    mem.write_frame(addr(1), frame_of(mem, 9))
    assert changed_addresses(mem, baseline) == [addr(0), addr(1)]


def test_diff_empty_when_identical(mem):
    mem.write_frame(addr(0), frame_of(mem, 4))
    assert mem.diff(mem.snapshot()).size == 0


def test_diff_detects_frame_cleared_vs_baseline(mem):
    mem.write_frame(addr(2), frame_of(mem, 5))
    baseline = mem.snapshot()
    mem.write_frame(addr(2), frame_of(mem, 0))
    assert addr(2) in changed_addresses(mem, baseline)


def test_write_counters(mem):
    mem.write_frame(addr(), frame_of(mem, 1))
    mem.read_frame(addr())
    assert mem.writes == 1
    assert mem.reads >= 1


def test_rows_for_matches_a_read_frame_loop(mem):
    mem.write_frame(addr(1), frame_of(mem, 1))
    mem.write_frame(addr(3), frame_of(mem, 2))
    addresses = [addr(1), addr(3), addr(2)]
    before = mem.reads
    rows = mem.rows_for(addresses)
    assert mem.reads - before == len(addresses)
    assert [int(row[0]) for row in rows] == [1, 2, 0]
    peek = mem.rows_for(addresses, count=False)
    assert mem.reads - before == len(addresses)
    assert np.array_equal(peek, rows)


def test_frames_the_device_lacks_are_rejected(mem):
    stray = addr(999)
    with pytest.raises(BitstreamError, match="outside"):
        mem.write_frame(stray, frame_of(mem, 1))
    with pytest.raises(BitstreamError, match="outside"):
        mem.write_frames([(addr(0), frame_of(mem, 1)), (stray, frame_of(mem, 2))])
    with pytest.raises(BitstreamError, match="outside"):
        mem.read_frame(stray)
    with pytest.raises(BitstreamError, match="outside"):
        mem.rows_for([addr(0), stray])
    assert (mem.writes, mem.reads, len(mem)) == (0, 0, 0)
    snapshot = mem.snapshot()
    assert stray not in snapshot
    assert snapshot.get(stray) is None


def test_restore_and_diff_reject_a_snapshot_of_another_device():
    small = ConfigMemory(XC2VP7)
    foreign = ConfigMemory(XC2VP30).snapshot()
    with pytest.raises(BitstreamError, match="XC2VP30"):
        small.restore(foreign)
    with pytest.raises(BitstreamError, match="XC2VP30"):
        small.diff(foreign)


def test_written_addresses_sorted(mem):
    mem.write_frame(addr(3), frame_of(mem, 1))
    mem.write_frame(addr(1), frame_of(mem, 1))
    order = mem.geometry.frame_order()
    assert [order[row] for row in np.flatnonzero(mem.written_mask())] == [addr(1), addr(3)]


# -- flip_bit (targeted fault injection) --------------------------------------

def test_flip_bit_flips_and_returns_address(mem):
    mem.write_frame(addr(), frame_of(mem, 0))
    struck = mem.flip_bit(mem.geometry.frame_index(addr()), 2, 7)
    assert struck == addr()
    assert mem.read_frame(addr())[2] == 1 << 7


def test_flip_bit_twice_restores(mem):
    data = frame_of(mem, 0xDEADBEEF)
    mem.write_frame(addr(), data)
    row = mem.geometry.frame_index(addr())
    mem.flip_bit(row, 5, 31)
    assert not np.array_equal(mem.read_frame(addr()), data)
    mem.flip_bit(row, 5, 31)
    assert np.array_equal(mem.read_frame(addr()), data)


def test_flip_bit_is_counter_silent(mem):
    # Radiation is not a bus access: neither counter may advance.
    mem.write_frame(addr(), frame_of(mem, 1))
    writes, reads = mem.writes, mem.reads
    mem.flip_bit(mem.geometry.frame_index(addr()), 0, 0)
    assert (mem.writes, mem.reads) == (writes, reads)


def test_flip_bit_never_promotes_unwritten_frames(mem):
    # A strike on a never-configured frame must stay outside the written
    # set, or scrubbing would start "repairing" frames nobody owns.
    row = int(np.flatnonzero(~mem.written_mask())[0])
    mem.flip_bit(row, 0, 3)
    assert not mem.written_mask()[row]
    assert mem.flip_bit(row, 0, 3) is not None  # flip back, still silent
    assert len(mem) == 0


def test_flip_bit_bounds_checked(mem):
    total = mem.device.total_frames
    words = mem.geometry.words_per_frame
    with pytest.raises(BitstreamError):
        mem.flip_bit(total, 0, 0)
    with pytest.raises(BitstreamError):
        mem.flip_bit(-1, 0, 0)
    with pytest.raises(BitstreamError):
        mem.flip_bit(0, words, 0)
    with pytest.raises(BitstreamError):
        mem.flip_bit(0, 0, 32)


# -- inject_upset -------------------------------------------------------------

def _rng(seed=9):
    return np.random.default_rng(seed)


def test_inject_upset_empty_memory_has_no_targets(mem):
    assert mem.inject_upset(_rng()) == []


def test_inject_upset_hits_only_written_frames_by_default(mem):
    mem.write_frame(addr(1), frame_of(mem, 0))
    flips = mem.inject_upset(_rng(), flips=16)
    assert len(flips) == 16
    assert {address for address, _, _ in flips} == {addr(1)}


def test_inject_upset_include_unwritten_widens_to_whole_catalogue(mem):
    # The Monte-Carlo campaigns sample the full configuration space:
    # even a completely blank memory yields strikes, and strikes on
    # never-written frames stay benign (no written-flag promotion).
    flips = mem.inject_upset(_rng(), flips=64, include_unwritten=True)
    assert len(flips) == 64
    assert not mem.written_mask().any()
    assert len(mem) == 0
    rows = {mem.geometry.frame_index(address) for address, _, _ in flips}
    assert len(rows) > 1  # spread over the catalogue, not one frame


def test_inject_upset_is_counter_silent(mem):
    mem.write_frame(addr(), frame_of(mem, 7))
    writes, reads = mem.writes, mem.reads
    mem.inject_upset(_rng(), flips=8, include_unwritten=True)
    assert (mem.writes, mem.reads) == (writes, reads)


def test_inject_upset_respects_address_restriction(mem):
    mem.write_frame(addr(0), frame_of(mem, 1))
    mem.write_frame(addr(2), frame_of(mem, 1))
    flips = mem.inject_upset(_rng(), flips=12, rows=mem.geometry.frame_rows([addr(2)]))
    assert {address for address, _, _ in flips} == {addr(2)}


def test_inject_upset_address_restriction_skips_unwritten_unless_asked(mem):
    mem.write_frame(addr(0), frame_of(mem, 1))
    rows = mem.geometry.frame_rows([addr(3)])
    assert mem.inject_upset(_rng(), flips=4, rows=rows) == []
    flips = mem.inject_upset(_rng(), flips=4, rows=rows, include_unwritten=True)
    assert {address for address, _, _ in flips} == {addr(3)}
    assert not mem.written_mask()[mem.geometry.frame_index(addr(3))]


def test_snapshot_written_rows_follow_the_mapping_order(mem):
    for major in (3, 1, 2):
        mem.write_frame(addr(major), frame_of(mem, major))
    snapshot = mem.snapshot()
    order = mem.geometry.frame_order()
    assert [order[row] for row in snapshot.written_rows()] == list(snapshot)
    assert np.array_equal(
        snapshot.data_rows(snapshot.written_rows()), np.stack([snapshot[a] for a in snapshot])
    )


def test_inject_upset_actually_corrupts_and_is_seeded(mem):
    mem.write_frame(addr(), frame_of(mem, 0))
    [(address, word, bit)] = mem.inject_upset(_rng(21), flips=1)
    assert mem.read_frame(address)[word] == np.uint32(1 << bit)
    fresh = ConfigMemory(XC2VP4)
    fresh.write_frame(addr(), frame_of(mem, 0))
    assert fresh.inject_upset(_rng(21), flips=1) == [(address, word, bit)]


def test_written_mask_is_a_read_only_view(mem):
    mem.write_frame(addr(1), frame_of(mem, 1))
    mask = mem.written_mask()
    with pytest.raises(ValueError):
        mask[0] = True
    assert mask[mem.geometry.frame_index(addr(1))]
    assert not mem.written_mask()[mem.geometry.frame_index(addr(0))]
