"""Tests for ICAP readback and verified reconfiguration."""

import numpy as np
import pytest

from repro.bus.transaction import Op, Transaction
from repro.core.reconfig import ReconfigManager
from repro.errors import ReconfigurationError
from repro.fabric.frames import BlockType, FrameAddress
from repro.kernels import BrightnessKernel
from repro.periph.hwicap import CTRL_READBACK, REG_CONTROL, REG_FAR, REG_RDATA


def test_mmio_readback_returns_frame(system32):
    address = system32.region.frame_addresses[0]
    expected = system32.config_memory.read_frame(address)
    hwicap = system32.hwicap
    base = hwicap.base
    hwicap.access(Transaction(Op.WRITE, base + REG_FAR, data=address.packed()), 0)
    hwicap.access(Transaction(Op.WRITE, base + REG_CONTROL, data=CTRL_READBACK), 0)
    words = []
    for _ in range(len(expected)):
        _, value = hwicap.access(Transaction(Op.READ, base + REG_RDATA), 0)
        words.append(value)
    assert words == [int(w) for w in expected]
    assert hwicap.frames_read_back == 1


def test_readback_empty_fifo_raises(system32):
    hwicap = system32.hwicap
    with pytest.raises(ReconfigurationError, match="empty"):
        hwicap.access(Transaction(Op.READ, hwicap.base + REG_RDATA), 0)


def test_readback_burst(system32):
    address = system32.region.frame_addresses[3]
    expected = system32.config_memory.read_frame(address)
    hwicap = system32.hwicap
    base = hwicap.base
    hwicap.access(Transaction(Op.WRITE, base + REG_FAR, data=address.packed()), 0)
    hwicap.access(Transaction(Op.WRITE, base + REG_CONTROL, data=CTRL_READBACK), 0)
    _, values = hwicap.access(Transaction(Op.READ, base + REG_RDATA, beats=4), 0)
    assert values == [int(w) for w in expected[:4]]


def test_verified_load_passes_and_costs_time(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    plain = manager.load("brightness")
    verified = manager.load("brightness", verify=True)
    assert verified.verify_ps > 0
    assert verified.frames_verified > 0
    assert plain.verify_ps == 0


def test_verified_load_detects_corruption(system32, monkeypatch):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))

    # Corrupt configuration memory between write and readback.
    original = system32.hwicap.load_words

    def corrupting(words):
        original(words)
        victim = system32.region.frame_addresses[0]
        frame = system32.config_memory.read_frame(victim)
        frame[0] ^= 0xFFFFFFFF
        system32.config_memory.write_frame(victim, frame)

    monkeypatch.setattr(system32.hwicap, "load_words", corrupting)
    with pytest.raises(ReconfigurationError, match="mismatch"):
        manager.load("brightness", verify=True)


def test_functional_readback_helper(system32):
    address = FrameAddress(BlockType.CLB, 0, 0)
    frame = system32.hwicap.readback_frame(address)
    assert np.array_equal(frame, system32.config_memory.read_frame(address))


def test_verify_samples_zero_is_rejected(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    with pytest.raises(ValueError, match="verify_samples"):
        manager.load("brightness", verify=True, verify_samples=0)


def test_verify_samples_are_clamped_and_exact(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    # Requesting more samples than frames checks every frame exactly once.
    result = manager.load("brightness", verify=True, verify_samples=10**6)
    assert result.frames_verified == result.frame_count
    # A small sample count checks exactly that many distinct frames —
    # never more (the old stride-based sampling could double the count).
    sampled = manager.load("brightness", verify=True, verify_samples=3)
    assert sampled.frames_verified == 3


def test_verify_charges_readback_not_status_reads(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    icap = system32.hwicap
    status_before = icap.stats.get("status_reads")
    readback_before = icap.stats.get("readback_reads")
    result = manager.load("brightness", verify=True, verify_samples=4)
    # Readback verification polls RDATA, never STATUS; the batched tail of
    # each frame must land on the readback counter like the word loop would.
    assert icap.stats.get("status_reads") == status_before
    words_per_frame = system32.device.words_per_frame
    assert (
        icap.stats.get("readback_reads") - readback_before
        == result.frames_verified * words_per_frame
    )
