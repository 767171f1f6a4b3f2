"""Tests for automatic component placement."""

import pytest

from repro.bitstream.bitlinker import BitLinker
from repro.bitstream.busmacro import BusMacro, Direction, MacroKind, Port, Side
from repro.bitstream.component import ComponentConfig
from repro.bitstream.generator import initialize_static_configuration
from repro.bitstream.placer import (
    assembly_resources,
    free_columns,
    pack_chain,
    pack_independent,
)
from repro.dock.interface import dock_ports, kernel_ports
from repro.errors import LinkError, ResourceError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP7
from repro.fabric.region import find_region
from repro.fabric.resources import ResourceVector


@pytest.fixture(scope="module")
def region():
    return find_region(XC2VP7, 28, 11, bram_blocks=6)


def comp(name, width, ports=(), slices=None):
    return ComponentConfig(
        name=name,
        width=width,
        height=11,
        resources=ResourceVector(slices=slices if slices is not None else width * 20),
        ports=tuple(ports),
    )


def test_pack_chain_abuts_in_order(region):
    parts = [comp("a", 4), comp("b", 6), comp("c", 3)]
    placements = pack_chain(region, parts)
    assert [p.col_offset for p in placements] == [0, 4, 10]
    assert free_columns(region, placements) == 28 - 13


def test_pack_chain_too_wide_rejected(region):
    with pytest.raises(ResourceError, match="columns wide"):
        pack_chain(region, [comp("a", 15), comp("b", 15)])


def test_pack_empty_rejected(region):
    with pytest.raises(LinkError):
        pack_chain(region, [])
    with pytest.raises(LinkError):
        pack_independent(region, [])


def test_pack_too_tall_rejected(region):
    tall = ComponentConfig(name="t", width=2, height=12, resources=ResourceVector(slices=8))
    with pytest.raises(LinkError, match="rows tall"):
        pack_chain(region, [tall])


def test_pack_independent_preserves_input_order(region):
    parts = [comp("small", 2), comp("big", 10), comp("mid", 5)]
    placements = pack_independent(region, parts)
    assert [p.component.name for p in placements] == ["small", "big", "mid"]
    # Widest got the leftmost slot (FFD).
    by_name = {p.component.name: p.col_offset for p in placements}
    assert by_name["big"] == 0
    # No overlaps.
    spans = sorted((p.col_offset, p.col_offset + p.component.width) for p in placements)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_pack_independent_overflow(region):
    with pytest.raises(ResourceError):
        pack_independent(region, [comp("a", 20), comp("b", 20)])


def test_pack_resource_overcommit(region):
    # Slices always fit if the footprints do (capacity = area x 4), but
    # scarce BRAM blocks can be overcommitted: the region holds only 6.
    def bram_comp(name):
        return ComponentConfig(
            name=name,
            width=6,
            height=11,
            resources=ResourceVector(slices=64, bram_blocks=4),
        )

    with pytest.raises(ResourceError, match="assembly needs"):
        pack_chain(region, [bram_comp("fat"), bram_comp("fat2")])


def test_assembly_resources_sums(region):
    parts = [comp("a", 4), comp("b", 6)]
    total = assembly_resources(pack_chain(region, parts))
    assert total.slices == parts[0].total_resources.slices + parts[1].total_resources.slices


def test_packed_chain_links_end_to_end(region):
    """A dock-fed two-stage chain placed by the packer must link cleanly."""
    chain_macro = BusMacro("stage", MacroKind.LUT, width=8)
    stage1 = comp(
        "stage1",
        6,
        ports=tuple(kernel_ports(32)) + (Port(chain_macro, Side.RIGHT, Direction.OUT),),
    )
    stage2 = comp("stage2", 5, ports=(Port(chain_macro, Side.LEFT, Direction.IN),))
    memory = ConfigMemory(XC2VP7)
    initialize_static_configuration(memory, region, seed="placer-test")
    linker = BitLinker(region, memory.snapshot(), dock_ports=dock_ports(32))
    placements = pack_chain(region, [stage1, stage2])
    stream = linker.link(placements)
    assert stream.frame_count == region.frame_count
    assert ("stage1.stage", "stage2.stage") in linker.last_report.connections
