"""Unit contract of the steady-state phase compiler (`repro.engine.batch`).

`run_steady` must be a pure host-time optimization: for any mix of gates
(declaration, fast-path switch, irregular timing) the simulated clock,
per-component statistics and data contents must match the stepped
reference exactly, and so must the totals of a trace.
"""

import numpy as np
import pytest

from repro.core import memmap
from repro.engine import fastpath
from repro.engine.batch import (
    MAX_PROBES,
    MIN_PROBES,
    declare_phases,
    declared_phases,
    phase_declared,
    reset_telemetry,
    run_steady,
    telemetry,
)
from repro.engine.trace import TraceRecorder
from repro.kernels.streams import LoopbackKernel
from repro.scenarios.rigs import build_rig32, build_rig64
from repro.sw.costmodel import charge_word_reads, charge_word_writes

N = 64
PHASE = "unit-phase"


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()


def _loaded_system(builder):
    system, manager = builder()
    system.dock.attach_kernel(LoopbackKernel(pipeline_depth=1))
    declare_phases(system, PHASE)
    return system


def _drive(system, n=N, use_bulk=True, phase=PHASE):
    """A canonical steady loop: write one word per iteration via PIO."""
    base = system.dock.base
    cpu = system.cpu
    words = list(range(1, n + 1))

    def step(i):
        cpu.io_write(base, words[i])
        cpu.execute_cycles(4)

    def bulk(start, count):
        system.dock.feed_words(np.asarray(words[start : start + count], dtype=np.uint64), 32, 0)

    run_steady(system, n, step, bulk if use_bulk else None, phase=phase)


def _observables(system):
    groups = [system.cpu.stats, system.plb.stats, system.dock.stats]
    fifo = getattr(system.dock, "fifo", None)
    if fifo is not None:
        groups.append(fifo.stats)
    stats = {}
    for group in groups:
        for name, counter in group._counters.items():
            stats[f"{group.name}.{name}"] = counter.value
        for name, acc in group._accumulators.items():
            stats[f"{group.name}.{name}"] = (acc.total, acc.count, acc.minimum, acc.maximum)
    drained = (
        system.dock.fifo.pop_many(len(system.dock.fifo))
        if fifo is not None
        else list(system.dock.drain_words(system.dock.pending_outputs))
    )
    return system.cpu.now_ps, stats, drained


@pytest.mark.parametrize("builder", [build_rig32, build_rig64], ids=["32", "64"])
def test_compiled_phase_matches_stepped_run(builder):
    with fastpath.forced_on():
        fast = _loaded_system(builder)
        _drive(fast)
    with fastpath.disabled():
        slow = _loaded_system(builder)
        _drive(slow)
    assert _observables(fast) == _observables(slow)
    assert telemetry().compiled_phases == 1
    assert telemetry().extrapolated_iterations == N - telemetry().probe_iterations


def test_declaration_gates_compilation():
    with fastpath.forced_on():
        system = _loaded_system(build_rig32)
        _drive(system, phase="never-declared")
    assert telemetry().compiled_phases == 0
    assert telemetry().reference_iterations == N


def test_phase_declarations_live_on_the_system():
    system = _loaded_system(build_rig32)
    assert phase_declared(system, PHASE)
    assert not phase_declared(system, "other")
    declare_phases(system, "other")
    assert {"other", PHASE} <= set(declared_phases(system))
    # A fresh system does not inherit the declaration.
    other = _loaded_system(build_rig32)
    assert "other" not in declared_phases(other)


def test_missing_bulk_falls_back_to_reference():
    with fastpath.forced_on():
        system = _loaded_system(build_rig32)
        _drive(system, use_bulk=False)
    assert telemetry().compiled_phases == 0
    assert telemetry().reference_iterations == N


def test_short_phase_falls_back_to_reference():
    with fastpath.forced_on():
        system = _loaded_system(build_rig32)
        _drive(system, n=MIN_PROBES)
    assert telemetry().compiled_phases == 0
    assert telemetry().reference_iterations == MIN_PROBES


def test_fastpath_off_forces_reference():
    with fastpath.disabled():
        system = _loaded_system(build_rig32)
        _drive(system)
    assert telemetry().compiled_phases == 0
    assert telemetry().reference_iterations == N


def test_traced_phase_compiles_with_reference_totals():
    """A trace hook does not stop compilation: the probes are traced per
    request, the extrapolated iterations as one ``steady`` event, and the
    totals equal the stepped run's per-request trace."""

    def run(force_off):
        ctx = fastpath.disabled() if force_off else fastpath.forced_on()
        with ctx:
            system = _loaded_system(build_rig64)
            tracer = TraceRecorder(capacity=1_000_000)
            system.plb.tracer = tracer
            _drive(system)
            return _observables(system), tracer

    fast_obs, fast_trace = run(force_off=False)
    slow_obs, slow_trace = run(force_off=True)
    assert fast_obs == slow_obs
    assert fast_trace.totals() == slow_trace.totals()
    assert telemetry().compiled_phases == 1
    probes = telemetry().probe_iterations
    (steady,) = fast_trace.filter(kind="steady")
    assert steady.fields["writes"] == N - probes
    assert len(fast_trace) == probes + 1
    assert len(slow_trace) == N


def test_irregular_phase_falls_back_and_stays_exact():
    """Iterations with varying cost never converge to a signature."""

    def run(ctx_factory):
        with ctx_factory():
            system = _loaded_system(build_rig32)
            cpu = system.cpu
            base = system.dock.base

            def step(i):
                cpu.io_write(base, i)
                cpu.execute_cycles(1 + (i % 5))  # different dt every probe

            def bulk(start, count):
                system.dock.feed_words(
                    np.arange(start, start + count, dtype=np.uint64), 32, 0
                )

            run_steady(system, N, step, bulk, phase=PHASE)
            return _observables(system)

    assert run(fastpath.forced_on) == run(fastpath.disabled)
    assert telemetry().compiled_phases == 0


def test_probe_budget_is_bounded():
    """Irregular phases stop probing after MAX_PROBES and still finish."""
    with fastpath.forced_on():
        system = _loaded_system(build_rig32)
        seen = []
        cpu = system.cpu
        base = system.dock.base

        def step(i):
            seen.append(i)
            cpu.io_write(base, i)
            cpu.execute_cycles(1 + (i % 7))

        def bulk(start, count):
            system.dock.feed_words(np.arange(start, start + count, dtype=np.uint64), 32, 0)

        run_steady(system, N, step, bulk, phase=PHASE)
    assert seen == list(range(N))
    assert MAX_PROBES < N


@pytest.mark.parametrize("charge", [charge_word_reads, charge_word_writes], ids=["reads", "writes"])
def test_phase_that_fills_the_data_cache_stays_exact(charge):
    """A phase whose iterations sweep fresh lines through the data cache
    changes the cache at every boundary, so it must not compile: 400
    iterations of three lines each overflow the 512-line cache, and a
    final sweep over the first iteration's lines then misses on both
    paths."""
    iterations = 400

    def run(ctx_factory):
        with ctx_factory():
            system, _ = build_rig64()
            declare_phases(system, PHASE)
            cpu = system.cpu
            base = system.dock.base

            def step(i):
                charge(system, memmap.STAGE_INPUT + 96 * i, 24)
                cpu.io_write(base, i)

            def bulk(start, count):
                system.dock.feed_words(np.arange(start, start + count, dtype=np.uint64), 32, 0)

            run_steady(system, iterations, step, bulk, phase=PHASE)
            charge(system, memmap.STAGE_INPUT, 24)
            stats = {}
            for group in (cpu.stats, system.plb.stats, cpu.dcache.stats):
                stats[group.name] = (
                    {name: c.value for name, c in group._counters.items()},
                    {
                        name: (a.total, a.count, a.minimum, a.maximum)
                        for name, a in group._accumulators.items()
                    },
                )
            return cpu.now_ps, stats

    assert run(fastpath.forced_on) == run(fastpath.disabled)
    assert telemetry().compiled_phases == 0
