"""Tests for the run-time reconfiguration manager."""

import numpy as np
import pytest

from repro.core.reconfig import ReconfigManager
from repro.errors import ReconfigurationError, ResourceError
from repro.fabric.config_memory import ConfigMemory
from repro.bitstream.generator import verify_preserves_static
from repro.kernels import BrightnessKernel, JenkinsHashKernel, Sha1Kernel, SinkKernel


def test_register_and_load(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(10))
    result = manager.load("brightness")
    assert manager.active == "brightness"
    assert system32.dock.kernel is not None
    assert result.frame_count == system32.region.frame_count
    assert result.elapsed_ps > 0


def test_load_unregistered_raises(system32):
    manager = ReconfigManager(system32)
    with pytest.raises(ReconfigurationError, match="not registered"):
        manager.load("ghost")


def test_sha1_rejected_on_32bit_system(system32):
    # The paper's central fit example: SHA-1 does not fit the 32-bit
    # system's dynamic area.
    manager = ReconfigManager(system32)
    with pytest.raises(ResourceError):
        manager.register(Sha1Kernel())


def test_sha1_accepted_on_64bit_system(system64):
    manager = ReconfigManager(system64)
    manager.register(Sha1Kernel())
    result = manager.load("sha1")
    assert result.frame_count > 0


def test_fits_helper(system32, system64):
    assert not ReconfigManager(system32).fits(Sha1Kernel())
    assert ReconfigManager(system64).fits(Sha1Kernel())
    assert ReconfigManager(system32).fits(BrightnessKernel(0))


def test_load_charges_simulated_time(system32):
    manager = ReconfigManager(system32)
    manager.register(SinkKernel())
    before = system32.cpu.now_ps
    result = manager.load("sink")
    assert system32.cpu.now_ps - before == result.elapsed_ps
    # Feeding ~80k words through the OPB HWICAP takes milliseconds.
    assert result.elapsed_ps > 1_000_000_000


def test_swap_between_kernels(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    manager.register(JenkinsHashKernel())
    manager.load("brightness")
    manager.load("lookup2")
    assert manager.active == "lookup2"
    assert system32.dock.kernel.name == "lookup2"
    assert len(manager.history) == 2


def test_load_preserves_static_configuration(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    manager.load("brightness")
    before = ConfigMemory(system32.device)
    before.restore(system32.baseline)
    assert verify_preserves_static(before, system32.config_memory, system32.region)


def test_differential_reload_is_faster(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    manager.register(JenkinsHashKernel())
    complete = manager.load("brightness")
    # Differential load of a different kernel relative to current state.
    differential = manager.load("lookup2", differential=True)
    assert differential.kind == "partial-differential"
    assert differential.word_count < complete.word_count
    assert differential.elapsed_ps < complete.elapsed_ps


def test_differential_reload_of_same_kernel_is_tiny(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    manager.load("brightness")
    again = manager.load("brightness", differential=True)
    assert again.frame_count == 0


def test_clear_detaches_kernel(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    manager.load("brightness")
    result = manager.clear()
    assert manager.active is None
    assert system32.dock.kernel is None
    assert result.kernel_name == "<clear>"


def test_hwicap_saw_the_frames(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    manager.load("brightness")
    assert system32.hwicap.frames_written >= system32.region.frame_count


def test_reconfig_result_reports_size(system32):
    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    result = manager.load("brightness")
    assert result.byte_size == result.word_count * 4
    assert result.elapsed_ms > 0


def test_load_rejects_a_stream_that_writes_static_frames(system32):
    # A load checks its effect, not the stream: a frame outside the region
    # is caught after the ICAP commit, whatever wrote it.
    from repro.bitstream.bitstream import Bitstream
    from repro.fabric.frames import FrameGeometry

    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    inside = set(system32.region.frame_addresses)
    static = next(a for a in FrameGeometry(system32.device).all_frames() if a not in inside)
    rogue = np.full(system32.device.words_per_frame, 0xDEADBEEF, dtype=np.uint32)
    link = manager._link

    def leaky_link(component, differential):
        stream = link(component, differential)
        return Bitstream(
            device_name=stream.device_name,
            kind=stream.kind,
            frames=list(stream.frames) + [(static, rogue)],
        )

    manager._link = leaky_link
    with pytest.raises(ReconfigurationError, match="disturbed configuration"):
        manager.load("brightness")


def test_clear_detects_disturbed_static_configuration():
    # Regression: clear() used to trust the linker's clear stream blindly;
    # a stream that also touches another dynamic region must be rejected.
    from repro.bitstream.bitstream import Bitstream
    from repro.core.multiregion import build_system64_dual

    system, slot = build_system64_dual()
    manager_a = ReconfigManager(system)
    manager_b = ReconfigManager(system, slot=slot)
    for manager in (manager_a, manager_b):
        manager.register(BrightnessKernel(5))
        manager.load("brightness")

    class LeakyLinker:
        """Clear stream that also corrupts a frame of the other region."""

        def __init__(self, real, victim):
            self.real = real
            self.victim = victim

        def clear_bitstream(self, description="clear dynamic region"):
            stream = self.real.clear_bitstream(description)
            words = system.device.words_per_frame
            rogue = np.full(words, 0xDEADBEEF, dtype=np.uint32)
            return Bitstream(
                device_name=stream.device_name,
                kind=stream.kind,
                frames=list(stream.frames) + [(self.victim, rogue)],
                description=stream.description,
            )

    manager_a.bitlinker = LeakyLinker(
        manager_a.bitlinker, slot.region.frame_addresses[0]
    )
    with pytest.raises(ReconfigurationError, match="disturbed configuration"):
        manager_a.clear()


def test_clear_of_one_region_preserves_the_other():
    from repro.core.multiregion import build_system64_dual

    system, slot = build_system64_dual()
    manager_a = ReconfigManager(system)
    manager_b = ReconfigManager(system, slot=slot)
    for manager in (manager_a, manager_b):
        manager.register(BrightnessKernel(5))
        manager.load("brightness")
    frames_b = {
        address: system.config_memory.read_frame(address)
        for address in slot.region.frame_addresses
    }
    manager_a.clear()
    for address, expected in frames_b.items():
        assert np.array_equal(system.config_memory.read_frame(address), expected)
