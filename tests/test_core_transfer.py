"""Tests for the raw transfer measurements (Tables 2/7/8 machinery)."""

import pytest

from repro.core.transfer import TransferBench
from repro.errors import TransferError

N = 1024


@pytest.fixture
def bench32(system32):
    return TransferBench(system32)


@pytest.fixture
def bench64(system64):
    return TransferBench(system64)


def test_pio_write_reports_per_transfer(bench32):
    result = bench32.pio_write_sequence(N)
    assert result.transfers == N
    assert result.word_bits == 32
    assert result.per_transfer_ns > 0
    assert result.total_ps > 0


def test_pio_read_slower_or_equal_to_write_32(bench32):
    w = bench32.pio_write_sequence(N)
    r = bench32.pio_read_sequence(N)
    assert r.per_transfer_ns >= w.per_transfer_ns * 0.9


def test_pio_interleaved_costs_about_write_plus_read(bench32):
    w = bench32.pio_write_sequence(N).per_transfer_ns
    r = bench32.pio_read_sequence(N).per_transfer_ns
    wr = bench32.pio_interleaved_sequence(N).per_transfer_ns
    assert 0.7 * (w + r) <= wr <= 1.3 * (w + r)


def test_pio_per_transfer_stable_across_lengths(bench32):
    short = bench32.pio_write_sequence(256).per_transfer_ns
    long = bench32.pio_write_sequence(4096).per_transfer_ns
    assert abs(short - long) / long < 0.1


def test_64bit_pio_faster_4_to_6_times(bench32, bench64):
    # "A decrease in transfer time between 4 and 6 times, depending on the
    #  transfer type, can be observed."
    for name in ("pio_write_sequence", "pio_read_sequence", "pio_interleaved_sequence"):
        t32 = getattr(bench32, name)(N).per_transfer_ns
        t64 = getattr(bench64, name)(N).per_transfer_ns
        assert 4.0 <= t32 / t64 <= 6.0, name


def test_dma_methods_rejected_on_32bit(bench32):
    with pytest.raises(TransferError, match="CPU-controlled"):
        bench32.dma_write_sequence(N)


def test_dma_write_faster_than_pio(bench64):
    pio = bench64.pio_write_sequence(N).per_transfer_ns
    dma = bench64.dma_write_sequence(N).per_transfer_ns
    assert dma < pio / 2  # and each DMA transfer moves twice the data


def test_dma_read_uses_fifo(bench64, system64):
    result = bench64.dma_read_sequence(N)
    assert result.word_bits == 64
    assert system64.dock.fifo.empty  # fully drained


def test_dma_interleaved_block_structure(bench64, system64):
    # More words than the FIFO holds forces block interleaving.
    result = bench64.dma_interleaved_sequence(5000)
    assert result.transfers == 5000
    assert system64.dock.fifo.empty
    # Data really moved: output region holds the loopback of the input.
    from repro.core import memmap

    src = system64.ext_mem.read_words(memmap.STAGE_INPUT, 4, size_bytes=8)
    dst = system64.ext_mem.read_words(memmap.STAGE_OUTPUT, 4, size_bytes=8)
    assert src == dst


def test_dma_completion_interrupt_taken(bench64, system64):
    before = system64.cpu.stats.get("interrupts")
    bench64.dma_write_sequence(N)
    assert system64.cpu.stats.get("interrupts") == before + 1


def test_bandwidth_computation(bench64):
    result = bench64.dma_write_sequence(N)
    expected = (N * 8) / (result.total_ps / 1e12) / 1e6
    assert result.bandwidth_mbps == pytest.approx(expected)


def test_dma_sequences_report_64bit_words(bench64):
    assert bench64.dma_write_sequence(128).word_bits == 64
    assert bench64.dma_interleaved_sequence(128).word_bits == 64


def test_pio_interleaved_extrapolation_matches_full_simulation():
    """The probe-extrapolated interleaved sequence must track a fully
    simulated per-pair loop with no systematic truncation bias (the old
    ``total // probe`` formula dropped the remainder before multiplying,
    biasing long sequences fast)."""
    from repro.core import build_system32, build_system64, memmap
    from repro.core.transfer import PIO_LOOP_CYCLES
    from repro.kernels.streams import LoopbackKernel
    from repro.sw.costmodel import charge_word_reads, charge_word_writes

    def fully_simulated(builder, n):
        system = builder()
        bench = TransferBench(system)
        bench._fresh_caches()
        system.dock.attach_kernel(LoopbackKernel(pipeline_depth=1))
        cpu = system.cpu
        start = cpu.now_ps
        for i in range(n):
            cpu.io_write(system.dock.base, i)
            cpu.io_read(system.dock.base)
            cpu.execute_cycles(PIO_LOOP_CYCLES)
        charge_word_reads(system, memmap.STAGE_INPUT, n)
        charge_word_writes(system, memmap.STAGE_OUTPUT, n)
        return cpu.now_ps - start

    n = 512
    for builder in (build_system32, build_system64):
        extrapolated = TransferBench(builder()).pio_interleaved_sequence(n).total_ps
        full = fully_simulated(builder, n)
        # Any residual error is the probe's first-pair transient, bounded
        # and independent of n -- not an accumulating per-pair truncation.
        assert extrapolated == pytest.approx(full, rel=0.005)
