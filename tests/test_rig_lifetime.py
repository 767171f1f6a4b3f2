"""A dead rig frees on reference count: nothing it built sits in a reference
cycle, so its configuration memory, ICAP buffer and DDR pages go as soon as
the last reference does, not at the next cyclic collection."""

import gc

import pytest

from repro.faults.plan import FaultPlan, arm
from repro.scenarios.rigs import build_rig32, build_rig64


@pytest.mark.parametrize("build", [build_rig32, build_rig64], ids=["rig32", "rig64"])
def test_a_dead_rig_leaves_no_cyclic_garbage(build):
    gc.collect()
    gc.disable()
    try:
        system, manager = build()
        # The first attempt's commit fails, so the load recovers with an
        # error (and its traceback) kept along the way.
        arm(system, FaultPlan(seed=3, commit_faults=[0]))
        result = manager.load_robust("patmatch")
        assert (result.attempts, result.fallback) == (2, False)
        del system, manager, result
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
