"""The per-process calibration memo (``repro.engine.memo``).

A hit must be indistinguishable from a miss: the same result, and the
same movement of the engine telemetry and the rig-memo counters.  The
key must separate everything a calibration depends on: its arguments,
the builder object and the fast-path state.
"""

import numpy as np
import pytest

from repro.bitstream.generator import rig_memo_telemetry
from repro.engine import batch, fastpath
from repro.engine.memo import MEMO_SIZE, memoized, reset_calibration_memo
from repro.errors import InvariantError
from repro.faults.montecarlo import calibrate_rig
from repro.scenarios.rigs import build_rig64
from repro.serve.costtable import calibrate

#: Smallest serve calibration: one kernel at one size class.
ONE_KERNEL = ("brightness",)

BUILDS = {"a": 0, "b": 0}


def rig_a(**kwargs):
    """``build_rig64`` that counts its calls (a miss builds, a hit does not)."""
    BUILDS["a"] += 1
    return build_rig64(**kwargs)


def rig_b(**kwargs):
    """The same rig behind another builder object."""
    BUILDS["b"] += 1
    return build_rig64(**kwargs)


def counters():
    rig = rig_memo_telemetry()
    return {**batch.telemetry().as_dict(), "rig_hits": rig.hits, "rig_misses": rig.misses}


def moved(call):
    """(result, counter delta) of one call."""
    before = counters()
    result = call()
    after = counters()
    return result, {name: after[name] - before[name] for name in after}


def builds(call, builder="a"):
    """How many rigs ``builder`` built during ``call`` (0 on a hit)."""
    before = BUILDS[builder]
    call()
    return BUILDS[builder] - before


def serve_table(builder=rig_a, kernels=ONE_KERNEL, size_classes=1, seed=2006):
    return calibrate(builder, kernels=kernels, size_classes=size_classes, seed=seed)


def fault_rig(builder=rig_a, calibration_seed=2006):
    return calibrate_rig(builder, kernel="brightness", max_attempts=2,
                         calibration_seed=calibration_seed)


def arrays_equal(one, other):
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(vars(one).values(), vars(other).values())
    )


# -- a hit is a miss ----------------------------------------------------------

def test_serve_hit_equals_miss():
    miss = serve_table()
    hit = serve_table()
    reset_calibration_memo()
    again = serve_table()
    assert hit is miss
    assert arrays_equal(hit, again)


def test_fault_hit_equals_miss():
    miss = fault_rig()
    hit = fault_rig()
    reset_calibration_memo()
    again = fault_rig()
    assert hit is miss
    assert hit.model == again.model
    assert arrays_equal(hit.space, again.space)


@pytest.mark.parametrize("calibration", [serve_table, fault_rig], ids=["serve", "faults"])
def test_hit_replays_the_telemetry_of_its_miss(calibration):
    _, on_miss = moved(calibration)
    _, on_hit = moved(calibration)
    assert on_hit == on_miss
    assert on_miss["rig_hits"] + on_miss["rig_misses"] > 0
    assert on_miss["compiled_phases"] + on_miss["reference_iterations"] > 0


def test_memoized_tables_are_read_only():
    table = serve_table()
    with pytest.raises(ValueError):
        table.hw_run_ps[0, 0] = 1
    for name in ("reconfig_ps", "sw_run_ps", "widths"):
        assert not getattr(table, name).flags.writeable


# -- the key ------------------------------------------------------------------

@pytest.mark.parametrize("calibration", [serve_table, fault_rig], ids=["serve", "faults"])
def test_fast_path_state_is_part_of_the_key(calibration):
    with fastpath.forced_on():
        assert builds(calibration) > 0
        assert builds(calibration) == 0
    with fastpath.disabled():
        assert builds(calibration) > 0
        assert builds(calibration) == 0


def test_fast_and_reference_calibrations_agree():
    with fastpath.forced_on():
        fast = serve_table()
    with fastpath.disabled():
        reference = serve_table()
    assert fast is not reference
    assert arrays_equal(fast, reference)


@pytest.mark.parametrize("change", [
    {"seed": 7},
    {"size_classes": 2},
    {"kernels": ("brightness", "fade")},
])
def test_serve_arguments_are_part_of_the_key(change):
    assert builds(serve_table) > 0
    assert builds(lambda: serve_table(**change)) > 0
    assert builds(lambda: serve_table(**change)) == 0


def test_fault_calibration_seed_is_part_of_the_key():
    assert builds(fault_rig) > 0
    assert builds(lambda: fault_rig(calibration_seed=42)) > 0
    assert builds(lambda: fault_rig(calibration_seed=42)) == 0


@pytest.mark.parametrize("calibration", [serve_table, fault_rig], ids=["serve", "faults"])
def test_builder_object_is_part_of_the_key(calibration):
    assert builds(calibration, "a") > 0
    assert builds(lambda: calibration(builder=rig_b), "b") > 0
    assert builds(lambda: calibration(builder=rig_b), "b") == 0


# -- the helper ---------------------------------------------------------------

def test_raising_miss_stores_nothing():
    calls = []

    def broken():
        calls.append(1)
        raise InvariantError("calibration: broken")

    for _ in range(2):
        with pytest.raises(InvariantError):
            memoized(("broken",), broken)
    assert len(calls) == 2
    assert memoized(("broken",), lambda: 5) == 5
    with pytest.raises(InvariantError, match="max_attempts"):
        calibrate_rig(build_rig64, max_attempts=0)
    with pytest.raises(InvariantError, match="max_attempts"):
        calibrate_rig(build_rig64, max_attempts=0)


def test_bound_evicts_least_recently_used():
    computed = []

    def compute(n):
        computed.append(n)
        return n

    for n in range(MEMO_SIZE):
        memoized(("lru", n), lambda n=n: compute(n))
    memoized(("lru", 0), lambda: compute(-1))  # a hit: 0 becomes most recent
    memoized(("lru", MEMO_SIZE), lambda: compute(MEMO_SIZE))  # evicts 1
    assert computed == list(range(MEMO_SIZE + 1))
    assert memoized(("lru", 0), lambda: compute(-1)) == 0
    assert memoized(("lru", 1), lambda: compute(101)) == 101
