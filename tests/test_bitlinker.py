"""Tests for components, frame generation and BitLinker assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitstream.bitlinker import BitLinker, Placement
from repro.bitstream.bitstream import BitstreamKind
from repro.bitstream.component import ComponentConfig
from repro.bitstream.generator import (
    initialize_static_configuration,
    verify_preserves_static,
)
from repro.dock.interface import dock_ports, kernel_ports
from repro.engine import fastpath
from repro.errors import LinkError, PortMismatchError, ResourceError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP7, XC2VP30
from repro.fabric.region import find_region
from repro.fabric.resources import ResourceVector


@pytest.fixture(scope="module")
def region():
    return find_region(XC2VP7, 28, 11, bram_blocks=6)


@pytest.fixture()
def booted(region):
    memory = ConfigMemory(XC2VP7)
    initialize_static_configuration(memory, region, seed="test-static")
    return memory


def component(name="comp", width=6, height=11, slices=150, ports=None):
    return ComponentConfig(
        name=name,
        width=width,
        height=height,
        resources=ResourceVector(slices=slices),
        ports=tuple(ports or kernel_ports(32)),
    )


@pytest.fixture()
def linker(region, booted):
    return BitLinker(region, booted, dock_ports=dock_ports(32))


# -- component validation ----------------------------------------------------

def test_component_footprint_must_hold_resources():
    with pytest.raises(ResourceError):
        ComponentConfig(name="x", width=1, height=1, resources=ResourceVector(slices=5))


def test_component_ports_must_fit_height():
    with pytest.raises(LinkError):
        component(height=3, slices=40)  # 32-bit interface needs more rows


def test_component_content_deterministic():
    a = component()
    assert a.column_bits(0, 0, 80) == component().column_bits(0, 0, 80)


def test_component_content_varies_by_column_and_minor():
    a = component()
    assert a.column_bits(0, 0, 80) != a.column_bits(1, 0, 80)
    assert a.column_bits(0, 0, 80) != a.column_bits(0, 1, 80)


def test_component_version_changes_content():
    a = component()
    assert a.column_bits(0, 0, 80) != a.with_version(2).column_bits(0, 0, 80)


def test_component_column_out_of_range():
    with pytest.raises(LinkError):
        component(width=2, slices=60).column_bits(2, 0, 80)


def test_total_resources_include_macros():
    comp = component(slices=100)
    assert comp.total_resources.slices > 100


# -- linking -----------------------------------------------------------------

def test_link_produces_complete_bitstream(linker, region):
    stream = linker.link([Placement(component(), 0, 0)])
    assert stream.kind is BitstreamKind.PARTIAL_COMPLETE
    assert stream.frame_count == region.frame_count


def test_link_requires_placements(linker):
    with pytest.raises(LinkError):
        linker.link([])


def test_link_rejects_out_of_region(linker):
    with pytest.raises(LinkError, match="does not fit"):
        linker.link([Placement(component(width=30), 0, 0)])


def test_link_rejects_overlap(linker):
    comp = component()
    with pytest.raises(LinkError, match="overlap"):
        linker.link([Placement(comp, 0, 0), Placement(component("other"), 2, 0)])


def test_link_rejects_overcommit(linker):
    big = ComponentConfig(
        name="big",
        width=20,
        height=11,
        resources=ResourceVector(slices=850),
        ports=tuple(kernel_ports(32)),
    )
    with pytest.raises(ResourceError):
        linker.link([Placement(big, 0, 0), Placement(component(slices=500, name="b2"), 21, 0)])


def test_link_rejects_port_mismatch(region, booted):
    no_dock = BitLinker(region, booted, dock_ports=())
    with pytest.raises(PortMismatchError):
        no_dock.link([Placement(component(), 0, 0)])


def test_link_rejects_dock_facing_component_off_the_region_edge(linker):
    # BITS004: the dock's bus macros sit at column 0 of the region.
    with pytest.raises(PortMismatchError, match="away from the dock edge"):
        linker.link([Placement(component(), 1, 0)])


def test_link_report(linker):
    linker.link([Placement(component(), 0, 0)])
    report = linker.last_report
    assert report.components == ["comp"]
    assert report.frame_count > 0
    assert any(a == "dock" for a, _ in report.connections)


def test_link_preserves_static_rows(linker, region, booted):
    stream = linker.link([Placement(component(), 0, 0)])
    before = ConfigMemory(XC2VP7)
    before.restore(booted.snapshot())
    after = ConfigMemory(XC2VP7)
    after.restore(booted.snapshot())
    for address, data in stream.frames:
        after.write_frame(address, data)
    assert verify_preserves_static(before, after, region)


def test_link_component_content_lands_in_region(linker, region, booted):
    stream = linker.link([Placement(component(), 0, 0)])
    # The region rows of the first component column must differ from the
    # (cleared) boot state.
    geo = booted.geometry
    addr = [a for a in stream.addresses() if a.major == region.rect.col][0]
    mask = geo.row_mask(region.rect.row, region.rect.row_end)
    assert (stream.frame_data(addr) & mask).any()


def test_differential_empty_after_apply(linker, booted, region):
    placements = [Placement(component(), 0, 0)]
    stream = linker.link(placements)
    current = ConfigMemory(XC2VP7)
    current.restore(booted.snapshot())
    for address, data in stream.frames:
        current.write_frame(address, data)
    diff = linker.link_differential(placements, current)
    assert diff.kind is BitstreamKind.PARTIAL_DIFFERENTIAL
    assert diff.frame_count == 0


def test_differential_smaller_than_complete(linker, booted):
    placements = [Placement(component(width=4), 0, 0)]
    complete = linker.link(placements)
    current = ConfigMemory(XC2VP7)
    current.restore(booted.snapshot())
    diff = linker.link_differential(placements, current)
    assert 0 < diff.frame_count < complete.frame_count


def test_two_abutting_components_port_check(region, booted):
    """Right ports of the left component must mate left ports of the right."""
    from repro.bitstream.busmacro import BusMacro, Direction, MacroKind, Port, Side

    macro = BusMacro("chain", MacroKind.LUT, width=8)
    left = ComponentConfig(
        name="left",
        width=6,
        height=11,
        resources=ResourceVector(slices=64),
        ports=tuple(kernel_ports(32)) + (Port(macro, Side.RIGHT, Direction.OUT),),
    )
    right = ComponentConfig(
        name="right",
        width=6,
        height=11,
        resources=ResourceVector(slices=64),
        ports=(Port(macro, Side.LEFT, Direction.IN),),
    )
    linker = BitLinker(region, booted, dock_ports=dock_ports(32))
    stream = linker.link([Placement(left, 0, 0), Placement(right, 6, 0)])
    assert stream.frame_count == region.frame_count
    chained = [c for c in linker.last_report.connections if "chain" in c[0] or "chain" in c[1]]
    assert chained


def test_gap_with_left_ports_rejected(region, booted):
    from repro.bitstream.busmacro import BusMacro, Direction, MacroKind, Port, Side

    macro = BusMacro("chain", MacroKind.LUT, width=8)
    left = component("left", width=6)
    right = ComponentConfig(
        name="right",
        width=6,
        height=11,
        resources=ResourceVector(slices=64),
        ports=(Port(macro, Side.LEFT, Direction.IN),),
    )
    linker = BitLinker(region, booted, dock_ports=dock_ports(32))
    with pytest.raises(PortMismatchError, match="abut"):
        linker.link([Placement(left, 0, 0), Placement(right, 8, 0)])


def test_clear_bitstream_restores_boot_state(linker, region, booted):
    stream = linker.link([Placement(component(), 0, 0)])
    current = ConfigMemory(XC2VP7)
    current.restore(booted.snapshot())
    for address, data in stream.frames:
        current.write_frame(address, data)
    clear = linker.clear_bitstream()
    for address, data in clear.frames:
        current.write_frame(address, data)
    for address in clear.addresses():
        assert current.frames_equal(address, booted)


# -- fast path == reference ----------------------------------------------------

#: The dynamic regions of the paper's two systems (figures 3 and 4).
PAPER_REGIONS = {
    "system32": find_region(XC2VP7, 28, 11, bram_blocks=6),
    "system64": find_region(XC2VP30, 32, 24, bram_blocks=22),
}


@pytest.fixture(scope="module")
def paper_linkers():
    linkers = {}
    for name, paper_region in PAPER_REGIONS.items():
        memory = ConfigMemory(paper_region.device)
        initialize_static_configuration(memory, paper_region, seed=f"test-{name}")
        linkers[name] = (BitLinker(paper_region, memory), memory)
    return linkers


def portless(name, width, height, bram_blocks=0):
    return ComponentConfig(
        name=name,
        width=width,
        height=height,
        resources=ResourceVector(slices=1, bram_blocks=bram_blocks),
    )


@st.composite
def assemblies(draw):
    """One to three portless components left to right, abutting or gapped."""
    system = draw(st.sampled_from(sorted(PAPER_REGIONS)))
    rect = PAPER_REGIONS[system].rect
    placements = []
    col = draw(st.integers(0, rect.width - 1))
    for index in range(draw(st.integers(1, 3))):
        if col >= rect.width:
            break
        width = draw(st.integers(1, min(8, rect.width - col)))
        height = draw(st.integers(1, rect.height))
        row = draw(st.integers(0, rect.height - height))
        bram_blocks = draw(st.integers(0, 1))
        placements.append(
            Placement(portless(f"c{index}", width, height, bram_blocks), col, row)
        )
        col += width + draw(st.integers(0, 3))
    return system, placements


def frames_of(stream):
    return [(address, data.tobytes()) for address, data in stream.frames]


@given(assembly=assemblies())
@example(assembly=(
    # Abutting pair over the BRAM column at x=8: with, then without BRAMs.
    "system32",
    [Placement(portless("a", 4, 11, bram_blocks=1), 5, 0),
     Placement(portless("b", 3, 5), 9, 2)],
))
@example(assembly=(
    # Three gapped components, raised rows, BRAM columns at x=6 and x=12.
    "system64",
    [Placement(portless("a", 6, 20, bram_blocks=1), 3, 4),
     Placement(portless("b", 2, 9), 10, 1),
     Placement(portless("c", 5, 24, bram_blocks=1), 14, 0)],
))
@settings(max_examples=25, deadline=None)
def test_fast_assembly_matches_reference(paper_linkers, assembly):
    system, placements = assembly
    linker, booted_memory = paper_linkers[system]
    results = []
    for mode in (fastpath.forced_on, fastpath.disabled):
        with mode():
            results.append((
                frames_of(linker.link(placements)),
                frames_of(linker.link_differential(placements, booted_memory)),
                frames_of(linker.clear_bitstream()),
            ))
    fast, reference = results
    assert fast == reference
    assert fast[0] != fast[2]  # the placements did land content
