"""Tests for the assembled systems (figures 3/4, Tables 1/6 inventory)."""

import pytest

from repro.core import build_system32, build_system64, memmap
from repro.dock.opb_dock import OpbDock
from repro.dock.plb_dock import PlbDock
from repro.periph import Gpio, InterruptController


def test_system32_headline_numbers(system32):
    assert system32.device.name == "XC2VP7"
    assert system32.cpu_clock.freq_mhz == 200
    assert system32.plb.clock.freq_mhz == 50
    assert system32.opb.clock.freq_mhz == 50
    assert system32.bus_width == 32


def test_system64_headline_numbers(system64):
    assert system64.device.name == "XC2VP30"
    assert system64.cpu_clock.freq_mhz == 300
    assert system64.plb.clock.freq_mhz == 100
    assert system64.bus_width == 64


def test_system32_region_matches_paper(system32):
    res = system32.region.resources
    assert res.slices == 1232
    assert res.bram_blocks == 6
    assert system32.region.rect.width == 28
    assert system32.region.rect.height == 11


def test_system64_region_matches_paper(system64):
    res = system64.region.resources
    assert res.slices == 3072
    assert res.bram_blocks == 22


def test_dock_types(system32, system64):
    assert isinstance(system32.dock, OpbDock)
    assert isinstance(system64.dock, PlbDock)


def test_memory_characteristics(system32, system64):
    assert system32.ext_mem.size_bytes == 32 * 1024 * 1024  # 32 MB SRAM
    assert system64.ext_mem.size_bytes == 512 * 1024 * 1024  # 512 MB DDR
    assert not system32.ext_mem_cacheable
    assert system64.ext_mem_cacheable


def test_system32_has_gpio_system64_has_intc(system32, system64):
    # "Minor differences include the addition of an interrupt controller
    #  ... and the absence of the GPIO controller."
    def kinds(system):
        return {type(component) for component in system.components}

    assert Gpio in kinds(system32)
    assert InterruptController not in kinds(system32)
    assert InterruptController in kinds(system64)
    assert Gpio not in kinds(system64)
    assert system64.dock.intc is system64.opb.decode(memmap.INTC_BASE).slave


def test_module_inventories_cover_paper_tables(system32, system64):
    names32 = [m.name for m in system32.modules]
    assert any("Dock" in n for n in names32)
    assert any("HWICAP" in n for n in names32)
    assert any("bridge" in n.lower() for n in names32)
    assert any("GPIO" in n for n in names32)
    names64 = [m.name for m in system64.modules]
    assert any("DDR" in n for n in names64)
    assert any("INTC" in n for n in names64)
    assert not any("GPIO" in n for n in names64)


def test_static_design_fits_outside_region(system32, system64):
    for system in (system32, system64):
        static = system.static_resources()
        budget = system.device.capacity - system.region.resources
        assert static.fits_within(budget)


def test_plb_dock_larger_than_opb_dock():
    # "the permanent circuits ... are larger and more complex for the
    #  second design" — dock with DMA + FIFO + interrupts costs more.
    assert PlbDock.RESOURCES.slices > OpbDock.RESOURCES.slices


def test_cpu_reads_and_writes_external_memory(system32):
    cpu = system32.cpu
    cpu.io_write(memmap.STAGE_INPUT, 0x1234)
    assert cpu.io_read(memmap.STAGE_INPUT) == 0x1234
    assert system32.ext_mem.read_word(memmap.STAGE_INPUT, 4) == 0x1234


def test_cpu_reaches_dock_through_bridge(system32):
    from repro.kernels.streams import LoopbackKernel

    system32.dock.attach_kernel(LoopbackKernel())
    system32.cpu.io_write(memmap.DOCK_BASE, 0x55)
    assert system32.cpu.io_read(memmap.DOCK_BASE) == 0x55
    assert system32.opb.stats.get("writes") >= 1  # crossed onto the OPB


def test_cpu_reaches_dock_directly_on_plb(system64):
    from repro.kernels.streams import LoopbackKernel

    system64.dock.attach_kernel(LoopbackKernel())
    opb_writes_before = system64.opb.stats.get("writes")
    system64.cpu.io_write(memmap.DOCK_BASE, 0x66)
    assert system64.cpu.io_read(memmap.DOCK_BASE) == 0x66
    assert system64.opb.stats.get("writes") == opb_writes_before  # no bridge crossing


def test_config_memory_boots_with_static_design(system32):
    assert len(system32.config_memory) == system32.device.total_frames
    assert len(system32.baseline) == system32.device.total_frames


def test_region_summary_string(system32):
    summary = system32.region_summary()
    assert "1232 slices" in summary
    assert "25.0%" in summary


def test_validate_passes_on_fresh_builds():
    build_system32().validate()
    build_system64().validate()


def test_builds_are_independent():
    a = build_system32()
    b = build_system32()
    a.cpu.elapse_cycles(100)
    assert b.cpu.now_ps == 0
