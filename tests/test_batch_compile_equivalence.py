"""Compiled-phase / interpreted-path equivalence for the app drivers.

The batch compiler must be invisible in every simulated observable: for
random workload shapes, each PIO driver is run with the compiler on and
off and everything comparable is diffed — elapsed picoseconds, task
results, CPU/cache/bus/bridge/dock/FIFO/DMA/HWICAP statistics including
accumulator count/min/max tuples.  ``REPRO_NO_FAST_PATH`` must force the
identical reference behaviour; a trace hook changes no code path, and
its totals match the reference trace.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apps import HwBrightnessPio, HwFadePio, HwJenkinsHash, HwPatternMatch
from repro.engine import fastpath
from repro.engine.batch import MIN_PROBES, telemetry
from repro.errors import KernelError
from repro.scenarios.rigs import build_rig32, build_rig64
from repro.workloads import binary_image, grayscale_image, random_key


def _full_stats(system):
    cpu = system.cpu
    buses = (system.plb, system.opb)
    slaves = {id(att.slave): att.slave for bus in buses for att in bus.attachments}
    groups = [cpu.stats, cpu.dcache.stats, cpu.icache.stats]
    groups += [bus.stats for bus in buses] + [slave.stats for slave in slaves.values()]
    fifo = getattr(system.dock, "fifo", None)
    if fifo is not None:
        groups.append(fifo.stats)
    dma = getattr(system.dock, "dma", None)
    if dma is not None:
        groups.append(dma.stats)
    return {group.name: group.state() for group in groups}


def _run_both(builder, scenario):
    """Run ``scenario`` compiled and stepped and diff every observable."""
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
@given(height=st.integers(min_value=11, max_value=24), width=st.integers(min_value=8, max_value=12))
@settings(max_examples=4, deadline=None)
def test_strip_loop_compiles_over_stepping_inner_phases(builder, height, width):
    """An image at most 12 pixels wide gives each strip at most three column
    words to write and two count words to read, too few for the inner PIO
    loops to probe, so they step; with more than ``MIN_PROBES`` strips the
    strip loop itself compiles, exactly once."""
    assert height - 7 > MIN_PROBES
    compiled = []

    def scenario(system, manager):
        manager.load("patmatch")
        before = telemetry().compiled_phases
        run = HwPatternMatch().run(system, binary_image(height, width, seed=height + width))
        compiled.append(telemetry().compiled_phases - before)
        return run

    _run_both(builder, scenario)
    assert compiled == [1, 0]


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
@pytest.mark.parametrize("shape", [(10, 6), (7, 20), (12, 3)])
def test_patmatch_rejects_images_smaller_than_the_pattern(builder, shape):
    system, manager = builder()
    manager.load("patmatch")
    now = system.cpu.now_ps
    with pytest.raises(KernelError, match="smaller than the pattern"):
        HwPatternMatch().run(system, np.ones(shape, dtype=bool))
    assert system.cpu.now_ps == now


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
@given(length=st.integers(min_value=1, max_value=2048))
@settings(max_examples=8, deadline=None)
def test_hash_equivalence(builder, length):
    def scenario(system, manager):
        manager.load("lookup2")
        return HwJenkinsHash().run(system, random_key(length, seed=length))

    _run_both(builder, scenario)


@pytest.mark.parametrize(
    "kernel, driver, workload",
    [
        ("brightness", HwBrightnessPio, lambda: grayscale_image(16, 32, seed=9)),
        ("patmatch", HwPatternMatch, lambda: binary_image(20, 40, seed=60)),
    ],
    ids=["brightness", "patmatch"],
)
def test_traced_driver_compiles_with_reference_totals(kernel, driver, workload):
    """A trace hook does not stop compilation, nested phases included: the
    compiled run's trace totals equal the stepped run's per-request trace."""
    from repro.engine.batch import reset_telemetry
    from repro.engine.trace import TraceRecorder

    traces = []

    def scenario(system, manager):
        manager.load(kernel)
        tracer = TraceRecorder(capacity=1_000_000)
        system.plb.tracer = system.opb.tracer = tracer
        traces.append(tracer)
        return driver().run(system, workload())

    reset_telemetry()
    _run_both(build_rig64, scenario)
    fast, slow = traces
    assert telemetry().compiled_phases > 0
    assert fast.totals() == slow.totals()
    assert fast.filter(kind="steady")
    assert len(fast) < len(slow)
    assert not any("requests" in event.fields for event in slow.events)


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
