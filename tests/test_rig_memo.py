"""Rig-level static-configuration memoization contract.

`initialize_static_configuration` may restore a memoized frame image
instead of regenerating it, but the resulting :class:`ConfigMemory` must
be indistinguishable — same data, same written mask, same ``writes``
accounting — and the memo must actually hit when scenarios share a rig.
"""

import numpy as np
import pytest

from repro.bitstream.generator import (
    reset_rig_memo,
    rig_memo_telemetry,
    static_configuration_key,
)
from repro.core import build_system32, build_system64
from repro.engine import fastpath


@pytest.fixture(autouse=True)
def _fresh_memo():
    reset_rig_memo()
    yield
    reset_rig_memo()


def _memory_state(system):
    memory = system.config_memory
    return memory._data.copy(), memory._written.copy(), memory.writes, memory.reads


@pytest.mark.parametrize("builder", [build_system32, build_system64], ids=["32", "64"])
def test_memo_hit_restores_identical_memory(builder):
    with fastpath.forced_on():
        cold = _memory_state(builder())  # miss: generates and stores
        warm = _memory_state(builder())  # hit: restores
    with fastpath.disabled():
        reference = _memory_state(builder())
    for label, state in (("warm", warm), ("reference", reference)):
        data, written, writes, reads = state
        assert np.array_equal(cold[0], data), label
        assert np.array_equal(cold[1], written), label
        assert cold[2] == writes, f"{label} writes accounting diverged"
        assert cold[3] == reads, f"{label} reads accounting diverged"
    assert rig_memo_telemetry().misses == 1
    assert rig_memo_telemetry().hits == 1


def test_fastpath_off_bypasses_the_memo():
    with fastpath.disabled():
        build_system32()
        build_system32()
    assert rig_memo_telemetry().hits == 0
    assert rig_memo_telemetry().misses == 0


def test_key_separates_devices_and_seeds():
    with fastpath.forced_on():
        s32 = build_system32()
        s64 = build_system64()
    k32 = static_configuration_key(s32.config_memory, s32.region, "static-32")
    k64 = static_configuration_key(s64.config_memory, s64.region, "static-64")
    assert k32 != k64
    assert static_configuration_key(
        s32.config_memory, s32.region, "other-seed"
    ) != k32
    # Two same-shape builds share a key (that is the whole point).
    assert rig_memo_telemetry().misses == 2


def test_hits_across_scenarios_sharing_a_rig():
    """Two registry scenarios that build the same rig share one miss."""
    import repro.scenarios as sc

    with fastpath.forced_on():
        first = sc.get_scenario("table04_hash32").run(smoke=True)
        before = (rig_memo_telemetry().hits, rig_memo_telemetry().misses)
        second = sc.get_scenario("table05_image32").run(smoke=True)
        after = (rig_memo_telemetry().hits, rig_memo_telemetry().misses)
    assert first.rows and second.rows
    assert after[0] > before[0]
    assert after[1] == before[1]
