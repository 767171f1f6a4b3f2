"""Unit contract of the steady-state phase compiler (`repro.engine.batch`).

`run_steady` must be a pure host-time optimization: for any mix of gates
(fast-path switch, missing ``bulk``, short or irregular loops) the
simulated clock, per-component statistics and data contents must match
the stepped reference exactly, and so must the totals of a trace.
"""

import weakref
from collections import deque

import numpy as np
import pytest

from repro.core import HwPatternMatch, build_system64_dual, memmap
from repro.engine import fastpath
from repro.engine.batch import (
    MAX_PROBES,
    MIN_PROBES,
    _Watch,
    reset_telemetry,
    run_steady,
    telemetry,
)
from repro.engine.clock import ClockDomain
from repro.engine.stats import StatsGroup
from repro.engine.time import PS_PER_MS
from repro.engine.trace import TraceRecorder
from repro.kernels.streams import LoopbackKernel
from repro.periph.uart import REG_STATUS, REG_TX
from repro.scenarios.dse import build_dse_rig
from repro.scenarios.rigs import build_rig32, build_rig64
from repro.sw.costmodel import charge_word_reads, charge_word_writes
from repro.workloads import binary_image

N = 64


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()


def _loaded_system(builder):
    system, manager = builder()
    system.dock.attach_kernel(LoopbackKernel(pipeline_depth=1))
    return system


def _drive(system, n=N, use_bulk=True):
    """A canonical steady loop: write one word per iteration via PIO."""
    base = system.dock.base
    cpu = system.cpu
    words = list(range(1, n + 1))

    def step(i):
        cpu.io_write(base, words[i])
        cpu.execute_cycles(4)

    def bulk(start, count):
        system.dock.feed_words(np.asarray(words[start : start + count], dtype=np.uint64), 32, 0)

    run_steady(system, n, step, bulk if use_bulk else None)


def _observables(system):
    groups = [system.cpu.stats, system.plb.stats, system.dock.stats]
    fifo = getattr(system.dock, "fifo", None)
    if fifo is not None:
        groups.append(fifo.stats)
    stats = {group.name: group.state() for group in groups}
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

            run_steady(system, N, step, bulk)
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

        run_steady(system, N, step, bulk)
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
            cpu = system.cpu
            base = system.dock.base

            def step(i):
                charge(system, memmap.STAGE_INPUT + 96 * i, 24)
                cpu.io_write(base, i)

            def bulk(start, count):
                system.dock.feed_words(np.arange(start, start + count, dtype=np.uint64), 32, 0)

            run_steady(system, iterations, step, bulk)
            charge(system, memmap.STAGE_INPUT, 24)
            stats = {
                group.name: group.state()
                for group in (cpu.stats, system.plb.stats, cpu.dcache.stats)
            }
            return cpu.now_ps, stats

    assert run(fastpath.forced_on) == run(fastpath.disabled)
    assert telemetry().compiled_phases == 0


def _slave_snapshots(system):
    """``StatsGroup.snapshot()`` of every slave attached to a bus."""
    slaves = {
        id(att.slave): att.slave
        for bus in (system.plb, system.opb)
        for att in bus.attachments
    }
    return [slave.stats.snapshot() for slave in slaves.values()]


def test_compiled_strip_loop_charges_every_bus_slave():
    """The pattern-match strip loop on the 32-bit system reads and writes
    the OPB SRAM through the data cache; a compiled run must charge the
    memory controller (and every other slave) what the stepped run does."""
    image = binary_image(20, 40)

    def run(ctx_factory):
        with ctx_factory():
            system, manager = build_rig32()
            manager.load("patmatch")
            HwPatternMatch().run(system, image)
            return system.cpu.now_ps, _slave_snapshots(system)

    assert run(fastpath.forced_on) == run(fastpath.disabled)
    assert telemetry().compiled_phases > 0


# -- the component inventory -------------------------------------------------


def _reachable(root):
    """Every ``StatsGroup`` reachable from ``root``, and every int attribute
    named ``*_ps`` or ``*busy_until*`` as ``(owner, name)``."""
    groups, cursors, seen = [], [], set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StatsGroup):
            groups.append(obj)
        elif isinstance(obj, weakref.ref):
            stack.append(obj())
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif isinstance(getattr(obj, "__dict__", None), dict) and not isinstance(obj, type):
            for name, value in vars(obj).items():
                if (
                    type(value) is int
                    and (name.endswith("_ps") or "busy_until" in name)
                    and not (isinstance(obj, ClockDomain) and name == "period_ps")
                ):
                    cursors.append((obj, name))
                stack.append(value)
    return groups, cursors


@pytest.mark.parametrize(
    "builder",
    [build_rig32, build_rig64, build_dse_rig, build_system64_dual],
    ids=["rig32", "rig64", "dse", "dual"],
)
def test_every_timed_state_is_watched_or_declared_functional(builder):
    """Walk the system's object graph: every statistics
    group is watched unless its component declares it functional, and
    every time cursor is watched (the CPU's is the phase's *now*)."""
    system = builder()[0]
    watch = _Watch(system)
    watched = {id(group) for group in watch.groups}
    functional = {
        id(c.stats) for c in system.components if getattr(c, "FUNCTIONAL_STATS", False)
    }
    groups, cursors = _reachable(system)
    assert len(groups) >= 14
    missing = [g.name for g in groups if id(g) not in watched | functional]
    assert missing == []
    declared = {(id(obj), name) for obj, name in watch.cursors}
    declared.add((id(system.cpu), "now_ps"))
    unwatched = [
        f"{type(obj).__name__}.{name}" for obj, name in cursors if (id(obj), name) not in declared
    ]
    assert unwatched == []


def test_compiled_uart_phase_leaves_the_transmitter_busy():
    """Bytes written to the UART keep its transmitter busy for their wire
    time, far longer than the stores take: a compiled run must leave the
    same watermark, so a status read a millisecond later still reads busy."""
    count = 64

    def run(ctx_factory):
        with ctx_factory():
            system, _ = build_rig32()
            cpu, uart = system.cpu, system.uart

            def step(i):
                cpu.io_write(uart.base + REG_TX, i)
                cpu.execute_cycles(4)

            def bulk(start, n):
                uart.tx_log.extend(range(start, start + n))

            run_steady(system, count, step, bulk)
            cpu.elapse_ps(PS_PER_MS)
            status = cpu.io_read(uart.base + REG_STATUS)
            return uart.tx_busy_until_ps, status, bytes(uart.tx_log), cpu.now_ps

    fast, slow = run(fastpath.forced_on), run(fastpath.disabled)
    assert fast == slow
    assert slow[1] == 0  # transmitter still busy
