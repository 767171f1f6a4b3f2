"""Compiled-phase / interpreted-path equivalence for the app drivers.

The batch compiler must be invisible in every simulated observable: for
random workload shapes, each PIO driver is run with the compiler on and
off and everything comparable is diffed — elapsed picoseconds, task
results, CPU/bus/bridge/dock/FIFO statistics including accumulator
count/min/max tuples.  ``REPRO_NO_FAST_PATH`` and trace hooks must force
the identical reference behaviour.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apps import (
    HwBrightnessPio,
    HwFadePio,
    HwJenkinsHash,
    HwPatternMatch,
)
from repro.engine import fastpath
from repro.scenarios.rigs import build_rig32, build_rig64
from repro.workloads import binary_image, grayscale_image, random_key


def _full_stats(system):
    groups = [system.cpu.stats, system.plb.stats, system.dock.stats]
    for attr in ("opb", "bridge"):
        component = getattr(system, attr, None)
        if component is not None and hasattr(component, "stats"):
            groups.append(component.stats)
    fifo = getattr(system.dock, "fifo", None)
    if fifo is not None:
        groups.append(fifo.stats)
    dma = getattr(system.dock, "dma", None)
    if dma is not None:
        groups.append(dma.stats)
    out = {}
    for group in groups:
        for name, counter in group._counters.items():
            out[f"{group.name}.{name}"] = counter.value
        for name, acc in group._accumulators.items():
            out[f"{group.name}.{name}"] = (acc.total, acc.count, acc.minimum, acc.maximum)
    return out


def _run_both(builder, scenario):
    with fastpath.forced_on():
        fast_system, fast_manager = builder()
        fast_run = scenario(fast_system, fast_manager)
    with fastpath.disabled():
        slow_system, slow_manager = builder()
        slow_run = scenario(slow_system, slow_manager)
    assert fast_run.elapsed_ps == slow_run.elapsed_ps
    assert np.array_equal(np.asarray(fast_run.result), np.asarray(slow_run.result))
    assert fast_system.cpu.now_ps == slow_system.cpu.now_ps
    assert _full_stats(fast_system) == _full_stats(slow_system)


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
@given(height=st.integers(min_value=4, max_value=24), width=st.integers(min_value=4, max_value=40))
@settings(max_examples=8, deadline=None)
def test_brightness_pio_equivalence(builder, height, width):
    def scenario(system, manager):
        manager.load("brightness")
        return HwBrightnessPio().run(system, grayscale_image(height, width, seed=3))

    _run_both(builder, scenario)


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
@given(height=st.integers(min_value=4, max_value=24), width=st.integers(min_value=4, max_value=40))
@settings(max_examples=8, deadline=None)
def test_fade_pio_equivalence(builder, height, width):
    def scenario(system, manager):
        manager.load("fade")
        a = grayscale_image(height, width, seed=5)
        b = grayscale_image(height, width, seed=6)
        return HwFadePio().run(system, a, b)

    _run_both(builder, scenario)


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
@given(height=st.integers(min_value=8, max_value=24), width=st.integers(min_value=8, max_value=64))
@settings(max_examples=6, deadline=None)
def test_patmatch_equivalence(builder, height, width):
    def scenario(system, manager):
        manager.load("patmatch")
        return HwPatternMatch().run(system, binary_image(height, width, seed=height + width))

    _run_both(builder, scenario)


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
@given(length=st.integers(min_value=1, max_value=2048))
@settings(max_examples=8, deadline=None)
def test_hash_equivalence(builder, length):
    def scenario(system, manager):
        manager.load("lookup2")
        return HwJenkinsHash().run(system, random_key(length, seed=length))

    _run_both(builder, scenario)


def test_driver_trace_is_byte_identical_under_compilation():
    """With a trace hook the compiler steps aside; the emitted trace must
    equal the reference trace byte for byte."""
    from repro.engine.trace import TraceRecorder

    def run(force_off):
        ctx = fastpath.disabled() if force_off else fastpath.forced_on()
        with ctx:
            system, manager = build_rig64()
            manager.load("brightness")
            tracer = TraceRecorder(capacity=1_000_000)
            system.plb.tracer = tracer
            run_result = HwBrightnessPio().run(system, grayscale_image(16, 32, seed=9))
            return run_result.elapsed_ps, tracer.to_jsonl()

    fast_ps, fast_trace = run(force_off=False)
    slow_ps, slow_trace = run(force_off=True)
    assert fast_ps == slow_ps
    assert fast_trace == slow_trace
    assert len(fast_trace) > 0


def test_env_var_round_trip_disables_compilation():
    from repro.engine.batch import reset_telemetry, telemetry

    fastpath.force(None)
    old = os.environ.get(fastpath.ENV_VAR)
    try:
        os.environ[fastpath.ENV_VAR] = "1"
        reset_telemetry()
        system, manager = build_rig32()
        manager.load("brightness")
        HwBrightnessPio().run(system, grayscale_image(8, 16, seed=2))
        assert telemetry().compiled_phases == 0
        assert telemetry().reference_iterations > 0
    finally:
        reset_telemetry()
        if old is None:
            os.environ.pop(fastpath.ENV_VAR, None)
        else:
            os.environ[fastpath.ENV_VAR] = old


def test_every_pio_driver_loop_of_perf_engine_e2e_compiles():
    """The compiler engages on the whole ``perf_engine_e2e`` workload: no
    driver iteration falls back to the reference interpreter."""
    from repro.engine.batch import reset_telemetry, telemetry
    from repro.scenarios import run_scenario

    try:
        with fastpath.forced_on():
            reset_telemetry()
            run_scenario("perf_engine_e2e", smoke=True)
        assert telemetry().reference_iterations == 0
        assert telemetry().compiled_phases > 0
    finally:
        reset_telemetry()
