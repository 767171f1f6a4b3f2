"""Tests for the seeded fault-injection plans (repro.faults.plan)."""

import numpy as np
import pytest

from repro.bitstream.packets import TYPE1_MAX_WORDS, Command, PacketWriter, Register
from repro.errors import ReconfigurationError, TransferError
from repro.faults import FaultPlan, arm, armed, disarm, payload_word_indices
from repro.kernels import BrightnessKernel

from .oracles import frame_path as oracle


# -- seed derivation / determinism -------------------------------------------

def test_plan_strikes_are_deterministic_from_seed():
    def strikes(seed):
        plan = FaultPlan(seed, seu_feeds={0}, seu_flips=3)
        words = _sample_words()
        plan.corrupt_staged(words)
        return plan.summary()

    assert strikes(7) == strikes(7)
    assert strikes(7) != strikes(8)


def test_invalid_seu_target_rejected():
    with pytest.raises(ValueError, match="seu_target"):
        FaultPlan(1, seu_target="everything")


# -- payload_word_indices ----------------------------------------------------

def _sample_words(system=None):
    from repro.core import build_system32

    if system is None:
        system = build_system32()
    return system.bitlinker.clear_bitstream().to_words()


def test_payload_indices_cover_fdri_payload_only(system32):
    words = _sample_words(system32)
    indices = payload_word_indices(words)
    assert indices.size > 0
    assert int(indices.min()) >= 0 and int(indices.max()) < words.size
    # Headers never land in the payload set: sync and dummy words are out.
    chosen = set(int(i) for i in indices)
    for idx, word in enumerate(words.tolist()):
        if word in (0xAA995566, 0xFFFFFFFF):
            assert idx not in chosen


def test_payload_flip_breaks_the_stream(system32):
    words = _sample_words(system32)
    indices = payload_word_indices(words)
    corrupted = words.copy()
    corrupted[int(indices[0])] ^= np.uint32(1)
    with pytest.raises(ReconfigurationError):
        system32.hwicap.load_words(corrupted)
    # The pristine copy still loads.
    system32.hwicap.load_words(words)


def test_payload_indices_of_a_type2_burst_match_the_header_walk():
    # A Type-2 burst is decoded packet by packet, outside the bulk-run path.
    w = PacketWriter()
    w.write_command(Command.RCRC)
    w.write_register(Register.FAR, [0])
    w.write_register(Register.FDRI, list(range(TYPE1_MAX_WORDS + 10)))
    w.write_register(Register.FAR, [1])
    w.write_register(Register.FDRI, [7, 8, 9])
    words = w.finish()
    indices = payload_word_indices(words)
    assert np.array_equal(indices, oracle.payload_word_indices(words))
    assert indices.size == TYPE1_MAX_WORDS + 13


def test_payload_indices_of_streams_without_sync():
    assert payload_word_indices(np.zeros(16, dtype=np.uint32)).size == 0
    assert payload_word_indices(np.zeros(0, dtype=np.uint32)).size == 0


def test_payload_indices_of_a_stream_naming_an_unknown_register():
    unknown = (1 << 29) | (2 << 27) | (0xA << 13) | 1  # Type-1 write to register 0xA
    words = np.array([0xFFFFFFFF, 0xAA995566, unknown, 5], dtype=np.uint32)
    assert payload_word_indices(words).size == 0


def test_payload_indices_of_a_stream_naming_an_unknown_block_type():
    writer = PacketWriter()
    writer.write_frames(np.array([3 << 24], dtype=np.uint32), np.zeros((1, 4), dtype=np.uint32))
    assert payload_word_indices(writer.finish()).size == 0


# -- staged-SEU hook ---------------------------------------------------------

def test_corrupt_staged_only_fires_on_scheduled_ordinals(system32):
    words = _sample_words(system32)
    plan = FaultPlan(3, seu_feeds={1})
    first = plan.corrupt_staged(words)
    assert first is words  # ordinal 0 untouched, no copy made
    second = plan.corrupt_staged(words)
    assert second is not words
    assert np.count_nonzero(second != words) == 1
    assert plan.faults_delivered == 1
    assert plan.injected[0].kind == "seu"
    assert plan.injected[0].site == "staged[1]"


def test_corrupt_staged_payload_target_hits_payload(system32):
    words = _sample_words(system32)
    plan = FaultPlan(5, seu_feeds={0})
    corrupted = plan.corrupt_staged(words)
    (changed,) = np.flatnonzero(corrupted != words)
    assert int(changed) in set(int(i) for i in payload_word_indices(words))


# -- configuration-memory upsets ---------------------------------------------

def test_inject_upset_flips_bits_without_touching_counters(system32):
    memory = system32.config_memory
    reads = memory.reads
    writes = memory.writes
    plan = FaultPlan(11, upset_flips=2)
    flipped = plan.upset_now(memory)
    assert len(flipped) == 2
    assert memory.reads == reads
    assert memory.writes == writes
    for fault in plan.injected:
        assert fault.kind == "memory-upset"
        assert fault.site == "idle"


def test_inject_upset_is_reproducible(system32, system64):
    from repro.core import build_system32

    def flips(seed):
        system = build_system32()
        plan = FaultPlan(seed, upset_flips=3)
        plan.upset_now(system.config_memory)
        return plan.summary()

    assert flips(21) == flips(21)
    assert flips(21) != flips(22)


# -- arming / disarming ------------------------------------------------------

def test_arm_and_disarm_wire_every_site(system64):
    plan = FaultPlan(1)
    arm(system64, plan)
    assert system64.fault_plan is plan
    assert system64.hwicap.fault_plan is plan
    assert system64.dock.dma.fault_plan is plan
    disarm(system64)
    assert system64.fault_plan is None
    assert system64.hwicap.fault_plan is None
    assert system64.dock.dma.fault_plan is None


def test_armed_context_manager_disarms_on_exit(system64):
    plan = FaultPlan(1)
    with armed(system64, plan) as active:
        assert active is plan
        assert system64.fault_plan is plan
    assert system64.fault_plan is None


def test_unarmed_system_has_null_plans(system32, system64):
    assert system32.fault_plan is None
    assert system32.hwicap.fault_plan is None
    assert system64.dock.dma.fault_plan is None  # only the 64-bit dock has DMA


# -- commit-fault hook through the ICAP --------------------------------------

def test_forced_commit_fault_raises_and_counts(system32):
    from repro.core.reconfig import ReconfigManager

    manager = ReconfigManager(system32)
    manager.register(BrightnessKernel(5))
    plan = FaultPlan(9, commit_faults={0})
    crc_before = system32.hwicap.crc_failures
    with armed(system32, plan):
        with pytest.raises(ReconfigurationError, match="injected CRC/commit fault"):
            manager.load("brightness")
    assert system32.hwicap.crc_failures == crc_before + 1
    assert plan.faults_delivered == 1
    assert plan.injected[0].kind == "commit-fail"


# -- DMA-error hook ----------------------------------------------------------

def test_dma_descriptor_fault_aborts_chain(system64):
    from repro.dock.dma import Descriptor

    plan = FaultPlan(4, dma_descriptors={0})
    descriptor = Descriptor(
        src=system64.ext_mem_base,
        dst=system64.ext_mem_base + 0x1000,
        word_count=16,
        size_bytes=8,
    )
    with armed(system64, plan):
        with pytest.raises(TransferError, match="injected transfer error"):
            system64.dock.dma.run_chain(0, [descriptor])
        # The next descriptor (ordinal 1) is not scheduled: retry succeeds.
        system64.dock.dma.run_chain(system64.cpu.now_ps, [descriptor])
    assert plan.faults_delivered == 1
    assert system64.dock.dma.stats.get("descriptor_faults") == 1
