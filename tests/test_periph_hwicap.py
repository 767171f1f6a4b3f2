"""Tests for the OPB HWICAP configuration controller."""

import numpy as np
import pytest

from repro.bitstream.bitstream import Bitstream, BitstreamKind, device_idcode
from repro.bitstream.packets import Command, PacketWriter, Register
from repro.bus.transaction import Op, Transaction
from repro.engine import fastpath
from repro.errors import ReconfigurationError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP4, XC2VP7
from repro.fabric.frames import BlockType, FrameAddress
from repro.faults.plan import FaultPlan
from repro.periph.hwicap import (
    CTRL_READBACK,
    REG_CONTROL,
    REG_DATA,
    REG_FAR,
    REG_STATUS,
    STATUS_DONE,
    STATUS_ERROR,
    OpbHwIcap,
)

from .oracles.frame_path import per_frame_reference


@pytest.fixture
def icap():
    memory = ConfigMemory(XC2VP4)
    return OpbHwIcap(memory, base=0x9000_0000), memory


def sample_bitstream(device=XC2VP4):
    words = device.words_per_frame
    frames = [
        (FrameAddress(BlockType.CLB, 0, 0), np.full(words, 0xA5, dtype=np.uint32)),
        (FrameAddress(BlockType.CLB, 0, 1), np.full(words, 0x5A, dtype=np.uint32)),
    ]
    return Bitstream(device.name, BitstreamKind.PARTIAL_COMPLETE, frames=frames)


def test_load_words_applies_frames(icap):
    controller, memory = icap
    stream = sample_bitstream()
    controller.load_words(stream.to_words())
    assert controller.frames_written == 2
    assert memory.read_frame(FrameAddress(BlockType.CLB, 0, 0))[0] == 0xA5


def test_mmio_data_then_commit(icap):
    controller, memory = icap
    words = sample_bitstream().to_words()
    for word in words:
        controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_DATA, data=int(word)), 0)
    controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_CONTROL, data=1), 0)
    assert controller.frames_written == 2
    assert controller.words_pending() == 0


def test_status_reflects_pending(icap):
    controller, memory = icap
    _, status = controller.access(Transaction(Op.READ, 0x9000_0000 + REG_STATUS), 0)
    assert status & STATUS_DONE
    controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_DATA, data=0xFFFFFFFF), 0)
    _, status = controller.access(Transaction(Op.READ, 0x9000_0000 + REG_STATUS), 0)
    assert not (status & STATUS_DONE)


def test_wrong_device_bitstream_rejected(icap):
    controller, memory = icap
    stream = sample_bitstream(XC2VP7)  # ICAP's memory is XC2VP4
    with pytest.raises(ReconfigurationError, match="targets"):
        controller.load_words(stream.to_words())


def test_corrupt_stream_sets_error(icap):
    controller, memory = icap
    words = sample_bitstream().to_words().copy()
    words[5] ^= 0xFFFF  # corrupt mid-stream
    with pytest.raises(ReconfigurationError):
        controller.load_words(words)
    assert controller.crc_failures == 1
    # The pushed block cleared DONE, and the failed commit did not set it.
    _, status = controller.access(Transaction(Op.READ, 0x9000_0000 + REG_STATUS), 0)
    assert status == STATUS_ERROR


def test_a_stream_naming_an_unknown_register_is_a_bad_bitstream(icap):
    controller, memory = icap
    unknown = (1 << 29) | (2 << 27) | (0xA << 13) | 1  # Type-1 write to register 0xA
    words = np.array([0xFFFFFFFF, 0xAA995566, unknown, 5], dtype=np.uint32)
    with pytest.raises(ReconfigurationError, match="bad bitstream: unknown register"):
        controller.load_words(words)
    assert controller.crc_failures == 1
    assert controller.frames_written == 0
    _, status = controller.access(Transaction(Op.READ, 0x9000_0000 + REG_STATUS), 0)
    assert status == STATUS_ERROR


def test_a_post_commit_upset_draws_from_the_committed_rows_in_stream_order(monkeypatch):
    """A commit of several runs hands the armed plan its rows in stream
    order: the strikes match the per-frame commit's, flip for flip."""

    def run():
        memory = ConfigMemory(XC2VP4)
        controller = OpbHwIcap(memory, base=0x9000_0000)
        controller.fault_plan = FaultPlan(3, post_commit_upsets={0}, post_commit_flips=8)
        order = memory.geometry.frame_order()
        fars = np.array([order[row].packed() for row in (40, 7, 300, 12, 99)], dtype=np.uint32)
        block = np.arange(fars.size * XC2VP4.words_per_frame, dtype=np.uint32)
        writer = PacketWriter()
        writer.write_command(Command.RCRC)
        writer.write_register(Register.IDCODE, [device_idcode(XC2VP4.name)])
        writer.write_command(Command.WCFG)
        writer.write_frames(fars[:2], block.reshape(fars.size, -1)[:2])
        writer.write_command(Command.NULL)  # ends the first run
        writer.write_frames(fars[2:], block.reshape(fars.size, -1)[2:])
        controller.load_words(writer.finish())
        return controller.fault_plan.injected, memory.snapshot()

    shipped, shipped_memory = run()
    per_frame_reference(monkeypatch)
    reference, reference_memory = run()
    assert len(shipped) == 8
    assert shipped == reference
    assert ConfigMemory(XC2VP4).diff(shipped_memory).size == 5
    assert np.array_equal(
        shipped_memory.data_rows(np.arange(XC2VP4.total_frames)),
        reference_memory.data_rows(np.arange(XC2VP4.total_frames)),
    )


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_commit_of_a_frame_the_device_lacks_fails_the_whole_stream(fast, monkeypatch):
    from repro.core import build_system32

    if not fast:
        per_frame_reference(monkeypatch)
    with fastpath.forced_on() if fast else fastpath.disabled():
        system = build_system32()
        controller, memory = system.hwicap, system.config_memory
        words = memory.geometry.words_per_frame
        frames = [
            (FrameAddress(BlockType.CLB, 0, 0), np.full(words, 0xA5, dtype=np.uint32)),
            (FrameAddress(BlockType.CLB, 999, 0), np.full(words, 0x5A, dtype=np.uint32)),
        ]
        stream = Bitstream(system.device.name, BitstreamKind.PARTIAL_COMPLETE, frames=frames)
        before = memory.snapshot()
        written = memory.written_mask().copy()
        writes, failures = memory.writes, controller.crc_failures
        with pytest.raises(ReconfigurationError, match=r"bad bitstream.*CLB\[999\]\.0"):
            controller.load_words(stream.to_words())
    assert controller.crc_failures == failures + 1
    assert controller.words_pending() == 0
    _, status = controller.access(Transaction(Op.READ, controller.base + REG_STATUS), 0)
    assert status & STATUS_ERROR
    assert memory.diff(before).size == 0
    assert np.array_equal(memory.written_mask(), written)
    assert memory.writes == writes


def test_readback_of_a_frame_the_device_lacks_raises(icap):
    controller, _ = icap
    far = FrameAddress(BlockType.CLB, 999, 0).packed()
    controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_FAR, data=far), 0)
    with pytest.raises(ReconfigurationError, match="outside"):
        controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_CONTROL, data=CTRL_READBACK), 0)
    assert controller.frames_read_back == 0
    assert controller.readback_pending() == 0


def test_unknown_register_write(icap):
    controller, _ = icap
    with pytest.raises(ReconfigurationError):
        controller.access(Transaction(Op.WRITE, 0x9000_0000 + 0x40, data=0), 0)


def test_empty_commit_is_noop(icap):
    controller, _ = icap
    controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_CONTROL, data=0), 0)
    assert controller.frames_written == 0


def test_write_wait_states(icap):
    controller, _ = icap
    wait, _ = controller.access(
        Transaction(Op.WRITE, 0x9000_0000 + REG_DATA, data=0xAA995566), 0
    )
    assert wait == OpbHwIcap.WRITE_WAIT
    controller.reset()


def test_ndarray_burst_accepted_by_reference_path(icap, monkeypatch):
    # Regression: with the fast path disabled, an ndarray burst payload to
    # REG_DATA used to hit the scalar int() coercion and raise TypeError.
    per_frame_reference(monkeypatch)
    controller, memory = icap
    words = sample_bitstream().to_words()
    with fastpath.disabled():
        controller.access(
            Transaction(Op.WRITE, 0x9000_0000 + REG_DATA, data=words, beats=len(words)),
            0,
        )
        controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_CONTROL, data=1), 0)
    assert controller.frames_written == 2
    assert memory.read_frame(FrameAddress(BlockType.CLB, 0, 0))[0] == 0xA5
    assert controller.stats.get("data_writes") == len(words)


def test_ndarray_burst_equivalent_across_paths(monkeypatch):
    def ingest():
        memory = ConfigMemory(XC2VP4)
        controller = OpbHwIcap(memory, base=0x9000_0000)
        words = sample_bitstream().to_words()
        wait, _ = controller.access(
            Transaction(Op.WRITE, 0x9000_0000 + REG_DATA, data=words, beats=len(words)),
            0,
        )
        controller.access(Transaction(Op.WRITE, 0x9000_0000 + REG_CONTROL, data=1), 0)
        return (
            wait,
            controller.frames_written,
            controller.stats.get("data_writes"),
            memory.read_frame(FrameAddress(BlockType.CLB, 0, 1)).tobytes(),
        )

    with fastpath.forced_on():
        fast = ingest()
    per_frame_reference(monkeypatch)
    with fastpath.disabled():
        slow = ingest()
    assert fast == slow

