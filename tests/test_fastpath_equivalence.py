"""Fast-path / per-beat-path equivalence contract.

The vectorized burst fast path (``Bus.request_burst``, the block DMA
primitives, the ring-buffer FIFO) must be *indistinguishable* from the
per-beat reference path: identical simulated timestamps, identical data in
memory and FIFOs, identical aggregate statistics — and with a trace hook
installed, equal trace totals (the hook changes no code path).
``repro.engine.fastpath`` (driven by the ``REPRO_NO_FAST_PATH``
environment variable or ``force()``) flips between the two worlds; these
tests run every scenario in both and diff everything observable.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransferBench, build_system32, build_system64, memmap
from repro.dock.dma import Descriptor
from repro.engine import fastpath
from repro.engine.trace import TraceRecorder
from repro.kernels.streams import CounterSourceKernel, LoopbackKernel, SinkKernel


def _seed_memory(system, n_words):
    data = np.arange(n_words, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    system.ext_mem.load(memmap.STAGE_INPUT - memmap.EXT_MEM_BASE, data.view(np.uint8))


def _full_stats(system):
    """Every observable statistic, including accumulator count/min/max."""
    out = {}
    for name, group in (
        ("plb", system.plb.stats),
        ("dock", system.dock.stats),
        ("fifo", system.dock.fifo.stats),
        ("dma", system.dock.dma.stats),
    ):
        for key, counter in group._counters.items():
            out[f"{name}.{key}"] = counter.value
        for key, acc in group._accumulators.items():
            out[f"{name}.{key}"] = (acc.total, acc.count, acc.minimum, acc.maximum)
    return out


def _run_both(scenario):
    """Run ``scenario(system) -> result`` with the fast path on and off."""
    with fastpath.forced_on():
        fast_system = build_system64()
        fast_result = scenario(fast_system)
    with fastpath.disabled():
        slow_system = build_system64()
        slow_result = scenario(slow_system)
    return (fast_system, fast_result), (slow_system, slow_result)


def _assert_equivalent(fast, slow):
    (fast_system, fast_result), (slow_system, slow_result) = fast, slow
    assert fast_result == slow_result
    assert _full_stats(fast_system) == _full_stats(slow_system)
    window = 2 * 1024 * 1024  # covers the staging regions the scenarios touch
    for base in (memmap.STAGE_INPUT - memmap.EXT_MEM_BASE, memmap.STAGE_OUTPUT - memmap.EXT_MEM_BASE):
        assert (
            fast_system.ext_mem.dump(base, window) == slow_system.ext_mem.dump(base, window)
        ).all()
    assert fast_system.dock.fifo.pop_many(len(fast_system.dock.fifo)) == slow_system.dock.fifo.pop_many(
        len(slow_system.dock.fifo)
    )


def test_env_var_disables_fast_path(monkeypatch):
    fastpath.force(None)
    monkeypatch.delenv(fastpath.ENV_VAR, raising=False)
    assert fastpath.enabled()
    monkeypatch.setenv(fastpath.ENV_VAR, "1")
    assert not fastpath.enabled()
    monkeypatch.setenv(fastpath.ENV_VAR, "0")
    assert fastpath.enabled()


@given(n=st.integers(min_value=1, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_dma_write_block_equivalence(n):
    def scenario(system):
        _seed_memory(system, n)
        system.dock.attach_kernel(SinkKernel())
        done = system.dock.dma_write_block(system.cpu.now_ps, memmap.STAGE_INPUT, n)
        return done, system.dock.kernel.words, system.dock.kernel.last

    _assert_equivalent(*_run_both(scenario))


@given(
    n=st.integers(min_value=1, max_value=4000),
    depth=st.integers(min_value=1, max_value=2047),
    pipeline=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_dma_interleaved_chain_equivalence(n, depth, pipeline):
    """Random write+drain chains over random FIFO depths and pipelines."""

    def scenario(system):
        system.dock.fifo.depth = depth  # shrink before any data flows
        system.dock.attach_kernel(LoopbackKernel(pipeline_depth=pipeline))
        cursor = system.cpu.now_ps
        _seed_memory(system, n)
        src, dst = memmap.STAGE_INPUT, memmap.STAGE_OUTPUT
        remaining, completions = n, []
        while remaining:
            chunk = min(remaining, system.dock.fifo.free)
            cursor = system.dock.dma_write_block(cursor, src, chunk)
            cursor, drained = system.dock.dma_drain_fifo(cursor, dst)
            completions.append((cursor, drained))
            src += chunk * 8
            dst += drained * 8
            remaining -= chunk
        return completions

    _assert_equivalent(*_run_both(scenario))


@given(n=st.integers(min_value=1, max_value=4000))
@settings(max_examples=15, deadline=None)
def test_dma_drain_from_source_kernel_equivalence(n):
    def scenario(system):
        source = CounterSourceKernel(seed=0xBEEF)
        system.dock.attach_kernel(source)
        cursor = system.cpu.now_ps
        remaining, completions = n, []
        while remaining:
            chunk = min(remaining, system.dock.fifo.depth)
            source.generate(chunk, width_bits=64)
            system.dock.collect_outputs()
            cursor, drained = system.dock.dma_drain_fifo(cursor, memmap.STAGE_OUTPUT)
            completions.append((cursor, drained))
            remaining -= chunk
        return completions

    _assert_equivalent(*_run_both(scenario))


@given(
    chain=st.lists(
        st.tuples(st.integers(min_value=1, max_value=600), st.booleans()),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=20, deadline=None)
def test_descriptor_chain_equivalence(chain):
    """Random scatter-gather chains mixing directions."""

    def scenario(system):
        system.dock.attach_kernel(LoopbackKernel(pipeline_depth=1))
        total = sum(count for count, _ in chain)
        _seed_memory(system, total)
        descriptors = []
        src = memmap.STAGE_INPUT
        dst = memmap.STAGE_OUTPUT
        pending = 0
        for count, drain in chain:
            if pending + count > 2000:  # keep undrained data inside the FIFO
                descriptors.append(Descriptor(src=None, dst=dst, word_count=pending))
                dst += pending * 8
                pending = 0
            descriptors.append(Descriptor(src=src, dst=None, word_count=count))
            src += count * 8
            pending += count
            if drain and pending:
                descriptors.append(Descriptor(src=None, dst=dst, word_count=pending))
                dst += pending * 8
                pending = 0
        return system.dock.dma.run_chain(system.cpu.now_ps, descriptors)

    _assert_equivalent(*_run_both(scenario))


@pytest.mark.parametrize("n", [1, 16, 17, 2047, 2048, 6000])
def test_transfer_bench_sequences_equivalence(n):
    def scenario(system):
        bench = TransferBench(system)
        w = bench.dma_write_sequence(n).total_ps
        r = bench.dma_read_sequence(n).total_ps
        wr = bench.dma_interleaved_sequence(n).total_ps
        return w, r, wr

    _assert_equivalent(*_run_both(scenario))


@pytest.mark.parametrize("builder", [build_system32, build_system64], ids=["32", "64"])
def test_pio_sequences_equivalence(builder):
    def totals():
        bench = TransferBench(builder())
        return [
            getattr(bench, method)(10_000).total_ps
            for method in ("pio_write_sequence", "pio_read_sequence", "pio_interleaved_sequence")
        ]

    with fastpath.forced_on():
        fast = totals()
    with fastpath.disabled():
        slow = totals()
    assert fast == slow


def test_traced_fast_path_matches_reference_totals():
    """A trace hook changes no code path: the fast build traces each
    closed-form burst as one event, the reference build traces every
    sub-burst, and both sum to the same per-bus totals."""

    def traced(force_off):
        ctx = fastpath.disabled() if force_off else fastpath.forced_on()
        with ctx:
            system = build_system64()
            tracer = TraceRecorder(capacity=1_000_000)
            system.plb.tracer = tracer
            total_ps = TransferBench(system).dma_interleaved_sequence(300).total_ps
            return (system, total_ps), tracer

    fast, fast_trace = traced(force_off=False)
    slow, slow_trace = traced(force_off=True)
    _assert_equivalent(fast, slow)
    assert fast_trace.totals() == slow_trace.totals()
    # Two descriptors of two bursts each, against one event per sub-burst.
    assert len(fast_trace) == 4
    totals = slow_trace.totals()["plb64"]
    assert len(slow_trace) == totals["reads"] + totals["writes"]
    assert not any("requests" in event.fields for event in slow_trace.events)


def test_repro_no_fast_path_env_round_trip():
    """The documented env flag flips the gate (subprocess-free check)."""
    fastpath.force(None)
    old = os.environ.get(fastpath.ENV_VAR)
    try:
        os.environ[fastpath.ENV_VAR] = "1"
        assert not fastpath.enabled()
    finally:
        if old is None:
            os.environ.pop(fastpath.ENV_VAR, None)
        else:
            os.environ[fastpath.ENV_VAR] = old
