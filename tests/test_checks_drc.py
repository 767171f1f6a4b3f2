"""Known-bad fixtures for every DRC rule — and silence on the seed systems.

Each rule in repro.checks gets at least one fixture that fires it, and the
shipped example systems must produce zero diagnostics, so the DRC neither
under- nor over-reports.
"""

import numpy as np
import pytest

from repro.bitstream.bitlinker import BitLinker, Placement
from repro.bitstream.bitstream import Bitstream, BitstreamKind
from repro.bitstream.component import ComponentConfig
from repro.bitstream.generator import initialize_static_configuration
from repro.checks import (
    ChainDescriptor,
    CheckReport,
    Severity,
    check_address_map,
    check_bitstream,
    check_bridge_map,
    check_descriptor_chain,
    check_dma_program,
    check_master_binding,
    check_placements,
    check_system,
    program_from_descriptors,
)
from repro.core import build_system32, build_system64, build_system64_dual
from repro.core import memmap
from repro.dock.dma import Descriptor
from repro.dock.interface import dock_ports, kernel_ports
from repro.dock.plb_dock import PlbDock
from repro.errors import LinkError, PortMismatchError, ResourceError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP7
from repro.fabric.frames import FrameAddress
from repro.fabric.region import find_region
from repro.fabric.resources import ResourceVector


@pytest.fixture(scope="module")
def region():
    return find_region(XC2VP7, 28, 11, bram_blocks=6)


@pytest.fixture(scope="module")
def linker(region):
    memory = ConfigMemory(XC2VP7)
    initialize_static_configuration(memory, region, seed="drc-test-static")
    return BitLinker(region, memory.snapshot(), dock_ports=dock_ports(32))


def component(name="comp", width=6, height=11, slices=150, ports=None):
    return ComponentConfig(
        name=name,
        width=width,
        height=height,
        resources=ResourceVector(slices=slices),
        ports=tuple(kernel_ports(32) if ports is None else ports),
    )


def rule_ids(report):
    return {d.rule for d in report.diagnostics}


# -- placement DRC (BITS001..BITS005) ---------------------------------------

def test_clean_placement_is_silent(region):
    report = check_placements(region, [Placement(component(), 0)], dock_ports(32))
    assert report.diagnostics == []


def test_bits001_component_overlap(region):
    placements = [
        Placement(component("a"), 0),
        Placement(component("b", ports=()), 3),  # overlaps columns 3..5 of 'a'
    ]
    report = check_placements(region, placements, dock_ports(32))
    assert "BITS001" in rule_ids(report)
    assert report.has_errors


def test_bits002_component_outside_region(region):
    offset = region.rect.width - 2  # width-6 component hangs 4 columns out
    report = check_placements(
        region, [Placement(component(ports=()), offset)], dock_ports(32)
    )
    assert "BITS002" in rule_ids(report)


def test_bits003_no_dock_interface(region):
    report = check_placements(region, [Placement(component(), 0)], dock_ports=())
    assert "BITS003" in rule_ids(report)


def test_bits003_adjacent_port_count_mismatch(region):
    # 'a' exposes no right-edge ports but abutting 'b' expects three.
    placements = [
        Placement(component("a"), 0),
        Placement(component("b"), 6),
    ]
    report = check_placements(region, placements, dock_ports(32))
    assert "BITS003" in rule_ids(report)


def test_bits004_left_ports_off_dock_edge(region):
    report = check_placements(region, [Placement(component(), 2)], dock_ports(32))
    assert "BITS004" in rule_ids(report)


def test_bits004_non_abutting_components(region):
    placements = [
        Placement(component("a"), 0),
        Placement(component("b"), 8),  # gap: 'a' ends at column 6
    ]
    report = check_placements(region, placements, dock_ports(32))
    assert "BITS004" in rule_ids(report)


def test_bits005_region_resources_exceeded(region):
    dense = region.rect.width * region.rect.height * 4
    placements = [
        Placement(component("a", width=region.rect.width, slices=dense), 0),
        Placement(component("b", width=region.rect.width, slices=dense, ports=()), 0),
    ]
    report = check_placements(region, placements, dock_ports(32))
    assert "BITS005" in rule_ids(report)


def bad_placements(region, rule):
    """One assembly that breaks ``rule`` first, against a 32-bit dock."""
    if rule == "BITS001":
        return [Placement(component("a"), 0), Placement(component("b", ports=()), 3)]
    if rule == "BITS002":
        return [Placement(component(ports=()), region.rect.width - 2)]
    if rule == "BITS003":
        return [Placement(component("a"), 0), Placement(component("b"), 6)]
    if rule == "BITS004":
        return [Placement(component(), 2)]
    dense = region.rect.width * region.rect.height * 4  # fills the area; macros overflow it
    return [Placement(component(width=region.rect.width, slices=dense), 0)]


@pytest.mark.parametrize(
    "rule, error",
    [
        ("BITS001", LinkError),
        ("BITS002", LinkError),
        ("BITS003", PortMismatchError),
        ("BITS004", PortMismatchError),
        ("BITS005", ResourceError),
    ],
)
def test_link_raises_the_error_mapped_to_each_placement_rule(region, linker, rule, error):
    first = check_placements(region, bad_placements(region, rule), dock_ports(32)).diagnostics[0]
    assert first.rule == rule
    with pytest.raises(error) as raised:
        linker.link(bad_placements(region, rule))
    assert type(raised.value) is error
    assert str(raised.value) == first.message


# -- bitstream DRC (BITS006..BITS008) ---------------------------------------

def test_clean_bitstream_is_silent(region, linker):
    bitstream = linker.link([Placement(component(), 0)])
    report = check_bitstream(region, bitstream)
    assert report.diagnostics == []


def test_bits006_frame_outside_region(region, linker):
    bitstream = linker.link([Placement(component(), 0)])
    inside = bitstream.frames[0][0]
    outside = FrameAddress(inside.block, inside.major + 1000, 0)
    payload = np.zeros(region.device.words_per_frame, dtype=np.uint32)
    tampered = Bitstream(
        device_name=bitstream.device_name,
        kind=BitstreamKind.PARTIAL_COMPLETE,
        frames=list(bitstream.frames) + [(outside, payload)],
    )
    report = check_bitstream(region, tampered)
    assert "BITS006" in rule_ids(report)
    assert report.has_errors


def test_bits007_differential_bitstream_warns(region, linker):
    memory = ConfigMemory(XC2VP7)
    initialize_static_configuration(memory, region, seed="drc-test-static")
    diff = linker.link_differential([Placement(component(), 0)], memory)
    report = check_bitstream(region, diff)
    assert "BITS007" in rule_ids(report)
    assert not report.has_errors  # hazard, not a hard failure
    assert report.warnings


def test_bits007_incomplete_partial_is_an_error(region, linker):
    bitstream = linker.link([Placement(component(), 0)])
    truncated = Bitstream(
        device_name=bitstream.device_name,
        kind=BitstreamKind.PARTIAL_COMPLETE,
        frames=list(bitstream.frames[:-1]),
    )
    report = check_bitstream(region, truncated)
    assert "BITS007" in rule_ids(report)
    assert report.has_errors


def test_bits008_device_mismatch(region):
    alien = Bitstream(device_name="XC2VP30", kind=BitstreamKind.PARTIAL_COMPLETE)
    report = check_bitstream(region, alien)
    assert rule_ids(report) == {"BITS008"}


# -- bus/address-map DRC (BUS001..BUS005) -----------------------------------

def test_bus001_overlapping_windows():
    report = check_address_map([("a", 0x0, 0x100), ("b", 0x80, 0x100)])
    assert "BUS001" in rule_ids(report)


def test_bus002_misaligned_window_warns():
    report = check_address_map([("a", 0x1002, 0x100)], beat_bytes=4)
    assert "BUS002" in rule_ids(report)
    assert not report.has_errors


def test_bus003_unreachable_opb_slave():
    report = check_bridge_map(
        bridge_windows=[("bridge", 0x1000, 0x100)],
        opb_windows=[("uart", 0x2000, 0x10)],
    )
    assert "BUS003" in rule_ids(report)


def test_bus004_dead_bridge_window_warns():
    report = check_bridge_map(
        bridge_windows=[("bridge", 0x1000, 0x100), ("dead", 0x9000, 0x100)],
        opb_windows=[("uart", 0x1000, 0x10)],
    )
    assert "BUS004" in rule_ids(report)
    assert not report.has_errors


def test_bus005_dma_master_on_wrong_bus():
    system = build_system64()
    system.dock.dma.bus = system.opb  # mis-wire the master port
    report = check_master_binding(system.plb, system.dock)
    assert rule_ids(report) == {"BUS005"}


# -- DMA-program DRC (DMA001..DMA006) ---------------------------------------

DOCK = memmap.DOCK_BASE


def test_clean_dma_program_is_silent():
    chain = [
        Descriptor(src=0x10_0000, dst=None, word_count=64),
        Descriptor(src=None, dst=0x20_0000, word_count=64),
    ]
    report = check_descriptor_chain(chain, dock_base=DOCK)
    assert report.diagnostics == []


def test_dma001_cyclic_chain():
    program = [
        ChainDescriptor(src=0x10_0000, dst=None, word_count=8, next_index=1),
        ChainDescriptor(src=0x20_0000, dst=None, word_count=8, next_index=0),
    ]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA001" in rule_ids(report)


def test_dma001_dangling_link():
    program = [ChainDescriptor(src=0x10_0000, dst=None, word_count=8, next_index=5)]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA001" in rule_ids(report)


def test_dma002_zero_length():
    program = [ChainDescriptor(src=0x10_0000, dst=None, word_count=0)]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA002" in rule_ids(report)


def test_dma003_misaligned_address():
    program = [ChainDescriptor(src=0x10_0003, dst=None, word_count=8, size_bytes=8)]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA003" in rule_ids(report)


def test_dma003_unsupported_beat_size():
    program = [ChainDescriptor(src=0x10_0000, dst=None, word_count=8, size_bytes=3)]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA003" in rule_ids(report)


def test_dma004_transfer_crosses_dock_window():
    program = [ChainDescriptor(src=DOCK - 0x40, dst=0x20_0000, word_count=32)]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA004" in rule_ids(report)


def test_dma004_dock_to_dock():
    program = [ChainDescriptor(src=None, dst=None, word_count=8)]
    report = check_dma_program(program, dock_base=DOCK)
    assert "DMA004" in rule_ids(report)


def test_dma005_drain_exceeds_fifo():
    program = [ChainDescriptor(src=None, dst=0x20_0000, word_count=4096)]
    report = check_dma_program(program, dock_base=DOCK, fifo_depth=2047)
    assert "DMA005" in rule_ids(report)


def test_dma006_beat_wider_than_bus():
    program = [ChainDescriptor(src=0x10_0000, dst=None, word_count=8, size_bytes=8)]
    report = check_dma_program(program, dock_base=DOCK, bus_width_bits=32)
    assert "DMA006" in rule_ids(report)


def test_program_from_descriptors_links_sequentially():
    chain = [
        Descriptor(src=0x10_0000, dst=None, word_count=4),
        Descriptor(src=None, dst=0x20_0000, word_count=4),
    ]
    program = program_from_descriptors(chain)
    assert [d.next_index for d in program] == [1, None]


# -- system DRC (SYS001..SYS003) and seed silence ---------------------------

@pytest.mark.parametrize("builder", [build_system32, build_system64])
def test_seed_systems_pass_drc(builder):
    report = check_system(builder())
    assert report.diagnostics == []


def test_dual_seed_system_passes_drc():
    system, _slot = build_system64_dual()
    assert check_system(system).diagnostics == []


def test_sys001_static_over_budget():
    system = build_system32()
    system.static_resources = lambda: ResourceVector(slices=10**6)
    report = check_system(system)
    assert "SYS001" in rule_ids(report)


def test_sys002_dock_window_too_small():
    system = build_system64()
    stub = PlbDock(0xC000_0000)
    system.plb.attach(stub, 0xC000_0000, 0x100, name="plb_dock_small")
    report = check_system(system)
    assert "SYS002" in rule_ids(report)


def test_sys003_dock_interface_drift():
    system = build_system64()
    system.bitlinker.dock_ports = system.bitlinker.dock_ports[:-1]
    report = check_system(system)
    assert "SYS003" in rule_ids(report)


def test_bus005_via_check_system():
    system = build_system64()
    system.dock.dma.bus = system.opb
    report = check_system(system)
    assert "BUS005" in rule_ids(report)


def test_reports_accumulate_across_checks():
    report = CheckReport()
    check_address_map([("a", 0x0, 0x100), ("b", 0x80, 0x100)], report=report)
    check_dma_program(
        [ChainDescriptor(src=None, dst=None, word_count=0)],
        dock_base=DOCK,
        report=report,
    )
    ids = rule_ids(report)
    assert {"BUS001", "DMA002", "DMA004"} <= ids
    assert report.summary()["error"] == len(report.errors)
    assert all(d.severity is Severity.ERROR for d in report.errors)
