"""Reconfiguration-datapath equivalence contract.

The block reconfiguration datapath (array packet codec, bulk ICAP ingest,
array-backed configuration memory, bulk BitLinker assembly) must be
*indistinguishable* from the frame-at-a-time oracles in
:mod:`tests.oracles.frame_path`: byte-identical serialised bitstreams,
identical configuration-memory contents and access counters after
load/swap/clear cycles, identical simulated timing in every
:class:`ReconfigResult`, and identical failure behaviour on corrupt
streams.  Each test runs the same workload as shipped with the fast path
forced on, and again with ``repro.engine.fastpath`` off (per-beat bus
transfers) and the oracles installed, and diffs everything observable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.bitstream import Bitstream
from repro.core import build_system32, build_system64
from repro.core.reconfig import ReconfigManager
from repro.engine import fastpath
from repro.engine.batch import MIN_PROBES, reset_telemetry, telemetry
from repro.engine.trace import TraceRecorder
from repro.errors import ReconfigurationError
from repro.fabric.frames import BlockType, FrameAddress
from repro.kernels import BrightnessKernel
from repro.scenarios.perf import run_reconfig_cycles
from repro.scenarios.rigs import build_rig64

from .oracles.frame_path import per_frame_reference

KERNEL = "brightness"
ALTERNATE = "lookup2"


def _both(scenario):
    """Run ``scenario() -> value`` as shipped with the fast path forced on,
    then with it off and the per-frame oracles installed."""
    with fastpath.forced_on():
        fast = scenario()
    with pytest.MonkeyPatch.context() as patch, fastpath.disabled():
        per_frame_reference(patch)
        slow = scenario()
    return fast, slow


# -- serialisation ----------------------------------------------------------
def test_serialized_clear_stream_byte_identical():
    def stream():
        _, manager = build_rig64()
        return manager.bitlinker.clear_bitstream().to_words()

    fast, slow = _both(stream)
    assert fast.dtype == slow.dtype
    assert fast.tobytes() == slow.tobytes()


def test_decode_agrees_with_reference_path():
    _, manager = build_rig64()
    words = manager.bitlinker.clear_bitstream().to_words()

    fast, slow = _both(lambda: Bitstream.from_words(words.copy()))
    assert fast.device_name == slow.device_name
    assert fast.frame_count == slow.frame_count
    for (fast_addr, fast_data), (slow_addr, slow_data) in zip(fast.frames, slow.frames):
        assert fast_addr == slow_addr
        assert np.array_equal(fast_data, slow_data)


# -- full reconfiguration cycles --------------------------------------------
def _cycle_observables():
    system, manager = build_rig64()
    loads, differentials, clears = run_reconfig_cycles(
        manager, cycles=2, kernel=KERNEL, alternate=ALTERNATE
    )
    memory = system.config_memory
    return {
        "now_ps": system.cpu.now_ps,
        "results": [
            (
                result.kernel_name,
                result.kind,
                result.frame_count,
                result.word_count,
                result.elapsed_ps,
                result.verify_ps,
                result.frames_verified,
            )
            for result in loads + differentials + clears
        ],
        "frames_written": system.hwicap.frames_written,
        "crc_failures": system.hwicap.crc_failures,
        "memory_writes": memory.writes,
        "memory_reads": memory.reads,
        "icap_stats": system.hwicap.stats.snapshot(),
        "memory": dict(memory.snapshot()),
    }


def test_reconfig_cycles_identical_in_every_observable():
    fast, slow = _both(_cycle_observables)

    fast_memory = fast.pop("memory")
    slow_memory = slow.pop("memory")
    assert fast == slow  # timing, results, counters, stats

    assert set(fast_memory) == set(slow_memory)
    for address, fast_data in fast_memory.items():
        assert np.array_equal(fast_data, slow_memory[address]), address


def test_verified_load_identical():
    def observables():
        system, manager = build_rig64()
        result = manager.load(KERNEL, verify=True, verify_samples=4)
        return (
            system.cpu.now_ps,
            result.elapsed_ps,
            result.verify_ps,
            result.frames_verified,
        )

    fast, slow = _both(observables)
    assert fast == slow


# -- failure behaviour -------------------------------------------------------
def _load_corrupted(mutate):
    """Feed a corrupted clear stream through the ICAP; return the error."""
    system, manager = build_rig64()
    words = manager.bitlinker.clear_bitstream().to_words().copy()
    mutate(words)
    with pytest.raises(ReconfigurationError) as excinfo:
        system.hwicap.load_words(words)
    return str(excinfo.value), system.hwicap.crc_failures, system.hwicap.frames_written


def test_crc_failure_identical():
    def flip_payload_word(words):
        # Word 12 sits inside the first frame's FDRI payload (after the
        # dummy/sync words, the RCRC/IDCODE/WCFG preamble and the frame's
        # FAR/FDRI headers), so the packet structure stays intact and only
        # the checksum breaks.
        words[12] ^= np.uint32(0x00010000)

    fast, slow = _both(lambda: _load_corrupted(flip_payload_word))
    assert fast == slow
    message, crc_failures, frames_written = fast
    assert "bad bitstream" in message and "CRC" in message
    assert crc_failures == 1
    assert frames_written == 0


# -- robust loading ----------------------------------------------------------
def test_clean_robust_load_identical():
    def observables():
        system, manager = build_rig64()
        result = manager.load_robust(KERNEL, verify_samples=4)
        return (
            system.cpu.now_ps,
            result.elapsed_ps,
            result.verify_ps,
            result.frames_verified,
            result.attempts,
            result.scrubbed_frames,
            result.fallback,
            system.hwicap.stats.snapshot(),
        )

    fast, slow = _both(observables)
    assert fast == slow


def test_faulted_robust_load_identical():
    from repro.faults import FaultPlan, armed

    def observables():
        system, manager = build_rig64()
        plan = FaultPlan(909, seu_feeds={0}, post_commit_upsets={0})
        with armed(system, plan):
            result = manager.load_robust(KERNEL)
        memory = system.config_memory
        return {
            "now_ps": system.cpu.now_ps,
            "attempts": result.attempts,
            "scrubbed": result.scrubbed_frames,
            "rolled_back": result.rolled_back,
            "faults": plan.summary(),
            "crc_failures": system.hwicap.crc_failures,
            "icap_stats": system.hwicap.stats.snapshot(),
            "memory_bytes": {
                address: data.tobytes() for address, data in memory.snapshot().items()
            },
        }

    fast, slow = _both(observables)
    assert fast == slow


def test_unarmed_hooks_do_not_change_observables():
    # The no-plan-armed contract: loading with hooks present but unarmed is
    # byte-identical to the pre-fault-subsystem behaviour in both worlds —
    # the equivalence suite above pins fast == slow, this pins armed-None.
    def observables():
        system, manager = build_rig64()
        assert system.fault_plan is None
        result = manager.load(KERNEL, verify=True, verify_samples=4)
        return (system.cpu.now_ps, result.elapsed_ps, result.frames_verified)

    fast, slow = _both(observables)
    assert fast == slow


# -- batched frame readback -------------------------------------------------
# Scrub, robust-load scans and verified loads all read frames back through
# one run_steady phase; these tests pin it to the frame-by-frame loop.

BUILDERS = {"system32": build_system32, "system64": build_system64}

#: Where upsets land among the frames read back: the first probed frame,
#: the first extrapolated one, and the last.
UPSET_SITES = st.sets(st.sampled_from(["probed", "extrapolated", "last"]))


def _fresh(name):
    system = BUILDERS[name]()
    manager = ReconfigManager(system)
    manager.register(BrightnessKernel(5))
    return system, manager


def _positions(sites, count):
    """Indices among ``count`` frames read back that ``sites`` name (an
    integer site names its index directly)."""
    wanted = {"probed": 0, "extrapolated": MIN_PROBES, "last": count - 1}
    indices = {wanted.get(site, site) for site in sites}
    return sorted(index for index in indices if 0 <= index < count)


def _upset(system, address, word):
    memory = system.config_memory
    memory.flip_bit(memory.geometry.frame_index(address), word, 3)


def _corrupt_feeds(system, manager, samples, sites, word, sticky=False):
    """After the first full feed (every feed when ``sticky``), flip a bit in
    the sampled frames ``sites`` names, wherever a feed rewrites them."""
    original = manager._feed_through_icap
    targets = []

    def feed(bitstream):
        result = original(bitstream)
        frames = bitstream.frames
        if not targets and frames:
            sampled = manager._sample_indices(len(frames), samples)
            targets.extend(frames[sampled[p]][0] for p in _positions(sites, len(sampled)))
            hit = targets
        elif sticky:
            written = {address for address, _ in frames}
            hit = [address for address in targets if address in written]
        else:
            hit = []
        for address in hit:
            _upset(system, address, word)
        return result

    manager._feed_through_icap = feed


def _readback_observables(name, scenario):
    """``scenario(system, manager)`` as shipped and under the oracles, plus
    every observable the batched readback could disturb."""

    def run():
        system, manager = _fresh(name)
        outcome = scenario(system, manager)
        return {
            "outcome": outcome,
            "now_ps": system.cpu.now_ps,
            "stats": [
                group.snapshot()
                for group in (
                    system.cpu.stats, system.plb.stats, system.opb.stats,
                    system.bridge.stats, system.hwicap.stats,
                )
            ],
            "frames_read_back": system.hwicap.frames_read_back,
            "far": system.hwicap._far,
            "memory_reads": system.config_memory.reads,
            "memory_writes": system.config_memory.writes,
        }

    return _both(run)


def _raised(action):
    try:
        return action()
    except ReconfigurationError as err:
        return ("error", str(err))


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILDERS)),
    count=st.one_of(st.integers(0, 5), st.none()),
    sites=UPSET_SITES,
    word=st.sampled_from([0, 1]),
)
def test_scrub_readback_identical(name, count, sites, word):
    def scenario(system, manager):
        manager.load_robust(KERNEL, verify_samples=2)
        golden = system.config_memory.snapshot()
        addresses = list(golden)[:count] if count is not None else list(golden)
        for position in _positions(sites, len(addresses)):
            _upset(system, addresses[position], word)
        report = manager.scrub(reference={address: golden[address] for address in addresses})
        return (
            report.frames_checked, report.frames_repaired,
            [str(address) for address in report.repaired], report.elapsed_ps,
        )

    fast, slow = _readback_observables(name, scenario)
    assert fast == slow


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILDERS)),
    samples=st.one_of(st.integers(1, 5), st.none()),
    sites=UPSET_SITES,
    word=st.sampled_from([0, 1]),
    sticky=st.booleans(),
)
def test_robust_load_readback_identical(name, samples, sites, word, sticky):
    # A non-sticky upset is found by the scan, scrubbed, and the only=bad
    # rescan comes back clean; a sticky one survives the rescan and ends
    # in rollback and a raised error after both attempts.
    def scenario(system, manager):
        _corrupt_feeds(system, manager, samples, sites, word, sticky)

        def load():
            result = manager.load_robust(KERNEL, max_attempts=2, verify_samples=samples)
            return (
                result.elapsed_ps, result.verify_ps, result.frames_verified,
                result.attempts, result.scrubbed_frames, result.rolled_back,
            )

        return _raised(load)

    fast, slow = _readback_observables(name, scenario)
    assert fast == slow


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILDERS)),
    samples=st.integers(1, 5),
    sites=UPSET_SITES,
    word=st.sampled_from([0, 1]),
)
def test_verified_load_readback_identical(name, samples, sites, word):
    def scenario(system, manager):
        _corrupt_feeds(system, manager, samples, sites, word)

        def load():
            result = manager.load(KERNEL, verify=True, verify_samples=samples)
            return (result.elapsed_ps, result.verify_ps, result.frames_verified)

        return _raised(load)

    fast, slow = _readback_observables(name, scenario)
    assert fast == slow


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_snapshot_reference_scrubs_as_the_same_frames_in_a_dict(name):
    """A :class:`ConfigSnapshot` reference (read by dense row) checks,
    repairs, reports and charges exactly what a plain dict of its frames
    (read by address) does."""

    def scenario(as_dict):
        system, manager = _fresh(name)
        manager.load_robust(KERNEL, verify_samples=2)
        golden = system.config_memory.snapshot()
        addresses = list(golden)
        upset = _positions(("probed", "extrapolated", "last"), len(addresses))
        for position in upset:
            _upset(system, addresses[position], 1)
        reference = {address: golden[address] for address in addresses} if as_dict else golden
        report = manager.scrub(reference=reference)
        assert report.repaired == [addresses[position] for position in upset]
        return (
            report, system.cpu.now_ps,
            [group.snapshot() for group in (system.cpu.stats, system.hwicap.stats)],
            system.config_memory.reads, system.config_memory.writes,
            system.config_memory.diff(golden).tolist(),
        )

    with fastpath.forced_on():
        by_rows, by_addresses = scenario(False), scenario(True)
    assert by_rows == by_addresses
    assert by_rows[0].frames_repaired == 3
    assert by_rows[-1] == []


def test_scrub_rejects_a_snapshot_of_another_device():
    system64, manager = _fresh("system64")
    manager.mark_golden()
    system32 = build_system32()
    start = system64.cpu.now_ps
    with pytest.raises(ReconfigurationError, match="scrub reference: snapshot of"):
        manager.scrub(reference=system32.config_memory.snapshot())
    assert system64.cpu.now_ps == start
    assert system64.hwicap.frames_read_back == 0


def test_scrub_rejects_a_reference_to_a_missing_frame():
    """A reference frame outside the device catalogue fails the scrub
    before any frame is read back or any time is charged, as shipped and
    under the oracles."""

    def scenario(system, manager):
        manager.mark_golden()
        golden = system.config_memory.snapshot()
        items = [(address, golden[address]) for address in list(golden)[:6]]
        stray = np.full(system.device.words_per_frame, 0xA5A5A5A5, dtype=np.uint32)
        items.insert(4, (FrameAddress(BlockType.CLB, 999, 0), stray))
        start = system.cpu.now_ps
        outcome = _raised(lambda: manager.scrub(reference=dict(items)))
        return outcome, system.cpu.now_ps - start

    fast, slow = _readback_observables("system32", scenario)
    assert fast == slow
    (kind, message), charged = fast["outcome"]
    assert kind == "error" and str(FrameAddress(BlockType.CLB, 999, 0)) in message
    assert charged == 0
    assert fast["frames_read_back"] == 0


def _per_frame_verify(manager):
    """Swap in the frame-by-frame verification loop that batched readback
    replaced (the oracle for the prefix rule)."""

    def verify(bitstream, samples):
        start = manager.system.cpu.now_ps
        indices = manager._sample_indices(len(bitstream.frames), samples)
        for index in indices:
            address, expected = bitstream.frames[index]
            data = manager._readback_frame(address)
            if not np.array_equal(data, expected):
                if int(data[0]) != int(expected[0]):
                    raise ReconfigurationError(
                        f"readback mismatch at {address}: {int(data[0]):#010x} != "
                        f"{int(expected[0]):#010x}"
                    )
                raise ReconfigurationError(f"readback mismatch within {address}")
        return manager.system.cpu.now_ps - start, len(indices)

    manager._verify_by_readback = verify


@pytest.mark.parametrize("k", [None, 0, MIN_PROBES + 2, 7])
@pytest.mark.parametrize("word", [0, 1])
def test_verify_matches_the_per_frame_loop_up_to_the_first_mismatch(k, word):
    """With an upset in the k-th of 8 sampled frames, verification stops
    there: the error, the time charged and every counter match the
    frame-by-frame loop, and exactly frames 0..k are read back."""
    samples = 8

    def run(oracle):
        system, manager = _fresh("system64")
        if oracle:
            _per_frame_verify(manager)
        _corrupt_feeds(system, manager, samples, () if k is None else (k,), word)
        outcome = _raised(
            lambda: manager.load(KERNEL, verify=True, verify_samples=samples).verify_ps
        )
        return {
            "outcome": outcome,
            "now_ps": system.cpu.now_ps,
            "frames_read_back": system.hwicap.frames_read_back,
            "memory_reads": system.config_memory.reads,
            "stats": [group.snapshot() for group in (system.cpu.stats, system.hwicap.stats)],
        }

    with fastpath.forced_on():
        batched, oracle = run(oracle=False), run(oracle=True)
    assert batched == oracle
    assert batched["frames_read_back"] == (samples if k is None else k + 1)
    if k is not None:
        assert ("mismatch at" if word == 0 else "mismatch within") in batched["outcome"][1]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_full_golden_scrub_compiles_the_readback_phase(name):
    """The readback loop engages the phase compiler: all but the probed
    frames of a full scrub are extrapolated.  Without the manager's phase
    declaration nothing compiles and this fails."""
    try:
        with fastpath.forced_on():
            _, manager = _fresh(name)
            manager.mark_golden()
            reset_telemetry()
            report = manager.scrub()
        assert report.frames_checked > MIN_PROBES
        assert telemetry().compiled_phases >= 1
        assert telemetry().extrapolated_iterations == report.frames_checked - MIN_PROBES
    finally:
        reset_telemetry()


def test_traced_scrub_compiles_with_reference_totals():
    """A trace hook no longer forces the per-frame loop: the compiled scrub
    traces its probed frames and one ``steady`` event per bus, and the
    totals equal the per-frame trace's (FAR and CONTROL writes and two
    RDATA reads per frame, on the PLB and again on the OPB)."""

    def run():
        system, manager = _fresh("system32")
        manager.mark_golden()
        tracer = TraceRecorder(capacity=1_000_000)
        system.plb.tracer = system.opb.tracer = tracer
        reset_telemetry()
        report = manager.scrub()
        observed = (
            report.frames_checked,
            system.cpu.now_ps,
            system.plb.stats.snapshot(),
            system.opb.stats.snapshot(),
            system.hwicap.stats.snapshot(),
        )
        return observed, tracer

    try:
        with fastpath.forced_on():
            fast, fast_trace = run()
            assert telemetry().compiled_phases >= 1
        with fastpath.disabled():
            slow, slow_trace = run()
    finally:
        reset_telemetry()
    assert fast == slow
    assert fast_trace.totals() == slow_trace.totals()
    frames = fast[0]
    assert len(slow_trace) == 8 * frames
    assert len(fast_trace) == 8 * MIN_PROBES + 2
