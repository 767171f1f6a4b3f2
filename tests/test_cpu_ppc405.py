"""Tests for the PPC405 core timing model."""

import pytest

from repro.bus.plb import make_plb
from repro.bus.transaction import Op
from repro.cpu.isa import InstructionMix
from repro.cpu.ppc405 import Ppc405
from repro.engine.clock import ClockDomain, mhz
from repro.errors import BusWidthError, SimulationError
from repro.mem.controllers import DdrController
from repro.mem.memory import MemoryArray


@pytest.fixture
def setup():
    clock = ClockDomain("cpu", mhz(200))
    bus_clock = ClockDomain("bus", mhz(100))
    plb = make_plb(bus_clock)
    memory = MemoryArray(1 << 20, "ddr")
    plb.attach(DdrController(memory, 0, "ddr"), 0, 1 << 20, name="ddr")
    cpu = Ppc405(clock, plb)
    cpu.add_cacheable(0, 1 << 20, memory)
    return cpu, memory, plb


def test_execute_advances_time(setup):
    cpu, memory, plb = setup
    cpu.execute(InstructionMix(alu=100))
    assert cpu.now_ps == 100 * cpu.clock.period_ps


def test_execute_iterations(setup):
    cpu, memory, plb = setup
    cpu.execute(InstructionMix(alu=10), iterations=5)
    assert cpu.now_ps == 50 * cpu.clock.period_ps


def test_elapse_negative_rejected(setup):
    cpu, _, _ = setup
    with pytest.raises(SimulationError):
        cpu.elapse_ps(-1)


def test_io_rejects_64bit(setup):
    # "load and store instructions handle items of size up to 32 bits"
    cpu, _, _ = setup
    with pytest.raises(BusWidthError):
        cpu.io_write(0, 0, size=8)
    with pytest.raises(BusWidthError):
        cpu.io_read(0, size=8)


def test_io_write_read_functional(setup):
    cpu, memory, plb = setup
    cpu.io_write(0x100, 0xABCD)
    assert cpu.io_read(0x100) == 0xABCD
    assert memory.read_word(0x100, 4) == 0xABCD


def test_io_advances_time(setup):
    cpu, _, _ = setup
    before = cpu.now_ps
    cpu.io_read(0)
    assert cpu.now_ps > before


def test_cached_load_hit_is_cheap(setup):
    cpu, memory, plb = setup
    memory.write_word(0x200, 4, 7)
    cpu.load_word(0x200)  # miss + fill
    t0 = cpu.now_ps
    value = cpu.load_word(0x204)  # same line: hit
    hit_time = cpu.now_ps - t0
    assert value == 0
    assert hit_time == cpu.clock.period_ps  # one pipeline cycle


def test_cached_load_miss_costs_line_fill(setup):
    cpu, memory, plb = setup
    t0 = cpu.now_ps
    cpu.load_word(0x400)
    miss_time = cpu.now_ps - t0
    assert miss_time > 10 * cpu.clock.period_ps


def test_store_word_functional(setup):
    cpu, memory, plb = setup
    cpu.store_word(0x300, 0x55)
    assert memory.read_word(0x300, 4) == 0x55


def test_dirty_eviction_does_not_corrupt_memory(setup):
    cpu, memory, plb = setup
    cpu.store_word(0x0, 0x11)
    # Evict line 0 by filling its set with conflicting lines.
    stride = cpu.dcache.set_count * cpu.dcache.line_bytes
    cpu.load_word(stride)
    cpu.load_word(2 * stride)
    assert memory.read_word(0x0, 4) == 0x11


def test_uncached_fallback_for_unknown_window(setup):
    cpu, memory, plb = setup
    # Address beyond the cacheable window would not decode; restrict the
    # cacheable list instead and verify io path used for a cached-range miss.
    cpu._windows.clear()
    before = cpu.stats.get("io_reads")
    cpu.load_word(0x100)
    assert cpu.stats.get("io_reads") == before + 1


def test_io_read_batch_matches_loop(setup):
    cpu, memory, plb = setup
    t0 = cpu.now_ps
    cpu.io_read_batch(0x500, 16)
    batch_time = cpu.now_ps - t0
    cpu2, memory2, plb2 = setup[0], setup[1], setup[2]
    # Fresh setup for the loop version.
    clock = ClockDomain("cpu", mhz(200))
    bus_clock = ClockDomain("bus", mhz(100))
    plb_l = make_plb(bus_clock)
    mem_l = MemoryArray(1 << 20, "ddr")
    plb_l.attach(DdrController(mem_l, 0, "ddr"), 0, 1 << 20, name="ddr")
    cpu_l = Ppc405(clock, plb_l)
    for _ in range(16):
        cpu_l.io_read(0x500)
    loop_time = cpu_l.now_ps
    assert abs(batch_time - loop_time) / loop_time < 0.15


def test_charge_stream_read_scales_with_misses(setup):
    cpu, memory, plb = setup
    t0 = cpu.now_ps
    cpu.charge_stream_read(0, 32 * 1024)
    first = cpu.now_ps - t0
    t1 = cpu.now_ps
    cpu.charge_stream_read(0x40000, 64 * 1024)
    second = cpu.now_ps - t1
    assert second == pytest.approx(2 * first, rel=0.1)


def test_charge_stream_requires_cacheable(setup):
    cpu, _, _ = setup
    with pytest.raises(SimulationError):
        cpu.charge_stream_read(0x9000_0000, 64)


def test_stream_write_dcbz_cheaper(setup):
    cpu, _, _ = setup
    t0 = cpu.now_ps
    cpu.charge_stream_write(0, 64 * 1024, allocate=True)
    allocate_time = cpu.now_ps - t0
    cpu.dcache.invalidate()
    t1 = cpu.now_ps
    cpu.charge_stream_write(0x40000, 64 * 1024, allocate=False)
    dcbz_time = cpu.now_ps - t1
    assert dcbz_time < allocate_time


def test_interrupt_entry_and_exit(setup):
    cpu, _, _ = setup
    cpu.take_interrupt(when_ps=1_000_000)
    assert cpu.now_ps >= 1_000_000
    assert cpu.stats.get("interrupts") == 1
    t = cpu.now_ps
    cpu.return_from_interrupt()
    assert cpu.now_ps > t


def test_reset_invalidates_caches(setup):
    cpu, memory, plb = setup
    cpu.load_word(0x100)
    assert cpu.dcache.contains(0x100)
    cpu.reset()
    assert not cpu.dcache.contains(0x100)
