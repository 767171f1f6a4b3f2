"""Batched fast paths must match real per-word loops.

The long transfer sequences of the paper tables use calibrate-and-multiply
shortcuts (`io_read_batch`, `io_write_batch`, stream charges).  These tests
pin the shortcut against the ground truth on both systems, within a tight
tolerance — if a timing model change breaks the equivalence, this is the
suite that catches it.
"""

import pytest

from repro.core import build_system32, build_system64, memmap
from repro.kernels.streams import SinkKernel

N = 64
TOLERANCE = 0.12


def pair(builder):
    return builder(), builder()


@pytest.mark.parametrize("builder", [build_system32, build_system64], ids=["32", "64"])
def test_io_read_batch_equals_loop(builder):
    batch_system, loop_system = pair(builder)
    batch_system.cpu.io_read_batch(memmap.STAGE_INPUT, N)
    for _ in range(N):
        loop_system.cpu.io_read(memmap.STAGE_INPUT)
    batch = batch_system.cpu.now_ps
    loop = loop_system.cpu.now_ps
    assert batch == pytest.approx(loop, rel=TOLERANCE)


@pytest.mark.parametrize("builder", [build_system32, build_system64], ids=["32", "64"])
def test_io_write_batch_equals_loop_to_dock(builder):
    batch_system, loop_system = pair(builder)
    batch_system.dock.attach_kernel(SinkKernel())
    loop_system.dock.attach_kernel(SinkKernel())
    batch_system.cpu.io_write_batch(memmap.DOCK_BASE, N)
    for i in range(N):
        loop_system.cpu.io_write(memmap.DOCK_BASE, i)
    # Posted writes: the loop's CPU-visible time can be below bus occupancy;
    # compare against when the loop's bus actually drained.
    batch = batch_system.cpu.now_ps
    loop = max(loop_system.cpu.now_ps, loop_system.plb.busy_until)
    assert batch == pytest.approx(loop, rel=TOLERANCE)


def test_stream_read_charge_equals_loop_on_cached_system():
    batch_system, loop_system = pair(build_system64)
    nbytes = 4096
    batch_system.cpu.charge_stream_read(memmap.STAGE_INPUT, nbytes)
    for offset in range(0, nbytes, 4):
        loop_system.cpu.load_word(memmap.STAGE_INPUT + offset)
    batch = batch_system.cpu.now_ps
    loop = loop_system.cpu.now_ps
    # The stream charge excludes the per-load pipeline slot (task models
    # charge it in their instruction mixes), so add it back for comparison.
    loop_minus_slots = loop - (nbytes // 4) * loop_system.cpu.clock.period_ps
    assert batch == pytest.approx(loop_minus_slots, rel=TOLERANCE)


def test_stream_write_charge_equals_loop_on_cached_system():
    batch_system, loop_system = pair(build_system64)
    nbytes = 4096
    batch_system.cpu.charge_stream_write(memmap.STAGE_OUTPUT, nbytes)
    for offset in range(0, nbytes, 4):
        loop_system.cpu.store_word(memmap.STAGE_OUTPUT + offset, offset)
    batch = batch_system.cpu.now_ps
    loop = loop_system.cpu.now_ps - (nbytes // 4) * loop_system.cpu.clock.period_ps
    # Write-back timing differs slightly (the loop's evictions happen on
    # later misses); allow a wider band but demand the same magnitude.
    assert batch == pytest.approx(loop, rel=0.35)


def test_pio_sequences_scale_linearly():
    """Doubling the sequence doubles the time (the multiply is honest)."""
    from repro.core import TransferBench

    system = build_system32()
    bench = TransferBench(system)
    t1 = bench.pio_write_sequence(512).total_ps
    t2 = bench.pio_write_sequence(1024).total_ps
    assert t2 == pytest.approx(2 * t1, rel=0.02)
