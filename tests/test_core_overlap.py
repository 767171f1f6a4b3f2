"""Tests for DMA/compute overlap and polled completion.

The overlapped write is closed form: the DMA chain and the CPU's work both
start at the CPU cursor, and the completion interrupt joins them at
``max(dma_done, compute_done)``.
"""

import pytest

from repro.core.transfer import TransferBench
from repro.dock.dma import Descriptor
from repro.errors import TransferError
from repro.scenarios.rigs import build_rig64

N = 1024


def test_overlap_total_is_max_of_parts(system64):
    bench = TransferBench(system64)
    result = bench.dma_write_overlapped(N, compute_cycles=1_000)
    assert result.total_ps >= max(result.dma_ps, result.compute_ps)
    assert result.total_ps < result.dma_ps + result.compute_ps


def test_overlap_efficiency_high_when_compute_fits(system64):
    bench = TransferBench(system64)
    result = bench.dma_write_overlapped(N, compute_cycles=500)
    assert result.compute_ps < result.dma_ps
    assert result.overlap_efficiency > 0.9


def test_overlap_with_compute_longer_than_dma(system64):
    bench = TransferBench(system64)
    result = bench.dma_write_overlapped(N, compute_cycles=10_000_000)
    assert result.compute_ps > result.dma_ps
    assert result.total_ps == pytest.approx(result.compute_ps, rel=0.01)


def test_overlapped_data_actually_arrives(system64):
    bench = TransferBench(system64)
    bench.dma_write_overlapped(N, compute_cycles=100)
    kernel = system64.dock.kernel
    assert kernel.words == N


@pytest.mark.parametrize(
    "words, cycles, expected",
    [
        (4096, 25_000, (110_386_640, 110_120_000, 83_325_000)),
        (1024, 6_000, (27_826_640, 27_560_000, 19_998_000)),
        (4096, 10_000_000, (33_330_266_640, 110_120_000, 33_330_000_000)),
    ],
)
def test_overlap_pinned_times(words, cycles, expected):
    """(total_ps, dma_ps, compute_ps) on a fresh rig, at paper, smoke and
    compute-bound parameters."""
    system, _ = build_rig64()
    result = TransferBench(system).dma_write_overlapped(words, compute_cycles=cycles)
    assert (result.total_ps, result.dma_ps, result.compute_ps) == expected


def test_overlap_starts_at_the_cpu_cursor():
    """Compute time is exact and every field sane when the CPU ran first."""
    system, _ = build_rig64()
    cpu = system.cpu
    cpu.execute_cycles(100_000)
    bench = TransferBench(system)
    for _ in range(2):
        result = bench.dma_write_overlapped(1024, compute_cycles=6_000)
        assert result.compute_ps == cpu.clock.cycles_to_ps(6_000)
        assert result.sequential_ps >= result.total_ps >= max(result.dma_ps, result.compute_ps)
        assert min(result.total_ps, result.dma_ps, result.compute_ps, result.sequential_ps) > 0


def test_polled_completion_detects_done(system64):
    bench = TransferBench(system64)
    result = bench.dma_write_polled(N)
    assert result.polls >= 1
    assert result.total_ps >= result.dma_ps
    assert result.compute_ps == 0


def test_overlap_requires_plb_dock(system32):
    bench = TransferBench(system32)
    with pytest.raises(TransferError):
        bench.dma_write_overlapped(N, compute_cycles=10)
    with pytest.raises(TransferError):
        bench.dma_write_polled(N)


def test_consecutive_overlaps_accumulate_time(system64):
    bench = TransferBench(system64)
    first = bench.dma_write_overlapped(N, compute_cycles=100)
    t_after_first = system64.cpu.now_ps
    bench.dma_write_overlapped(N, compute_cycles=100)
    assert system64.cpu.now_ps > t_after_first


def test_cpu_pio_contends_with_active_dma(system64):
    """A CPU access issued mid-DMA queues behind the burst tenures."""
    from repro.core import memmap
    from repro.kernels.streams import SinkKernel

    dock = system64.dock
    dock.attach_kernel(SinkKernel())
    cpu = system64.cpu

    # Idle-bus baseline.
    idle_start = cpu.now_ps
    cpu.io_read(memmap.STAGE_INPUT)
    idle_latency = cpu.now_ps - idle_start

    # Saturate the PLB with a DMA chain, then read mid-transfer.
    done = dock.dma.run_chain(cpu.now_ps, [Descriptor(src=0x2000, dst=None, word_count=512)])
    assert system64.plb.busy_until == done
    contended_start = cpu.now_ps
    cpu.io_read(memmap.STAGE_INPUT)
    contended_latency = cpu.now_ps - contended_start
    assert contended_latency > 5 * idle_latency  # queued behind the DMA


def test_per_master_stats_in_real_system(system64):
    """System-level traffic is attributed to the right masters."""
    from repro.core import memmap
    from repro.kernels.streams import SinkKernel

    dock = system64.dock
    dock.attach_kernel(SinkKernel())
    system64.cpu.io_write(memmap.STAGE_INPUT, 1)
    dock.dma.run_chain(system64.cpu.now_ps, [Descriptor(src=0x3000, dst=None, word_count=32)])
    stats = system64.plb.stats
    assert stats.get("master[cpu-data].writes") >= 1
    assert stats.get("master[dma].reads") >= 1
    assert stats.get("master[dma].writes") >= 1
