"""Known-bad fixtures for every DRC rule — and silence on the seed systems.

Each rule in repro.checks gets at least one fixture that fires it, and the
shipped example systems must produce zero diagnostics, so the DRC neither
under- nor over-reports.
"""

import pytest

from repro.bitstream.bitlinker import BitLinker, Placement
from repro.bitstream.component import ComponentConfig
from repro.bitstream.generator import initialize_static_configuration
from repro.checks import (
    CheckReport,
    Severity,
    check_address_map,
    check_bridge_map,
    check_master_binding,
    check_placements,
    check_system,
)
from repro.core import build_system32, build_system64, build_system64_dual
from repro.dock.interface import dock_ports, kernel_ports
from repro.dock.plb_dock import PlbDock
from repro.errors import LinkError, PortMismatchError, ResourceError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP7
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


def test_reports_accumulate_across_checks(region):
    report = CheckReport()
    check_address_map([("a", 0x0, 0x100), ("b", 0x80, 0x100)], report=report)
    check_placements(region, bad_placements(region, "BITS001"), dock_ports(32), report=report)
    ids = rule_ids(report)
    assert {"BUS001", "BITS001"} <= ids
    assert report.summary()["error"] == len(report.errors)
    assert all(d.severity is Severity.ERROR for d in report.errors)
