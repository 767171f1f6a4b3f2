"""Tests for the fault-load sampling layer (repro.faults.sampling)."""

import numpy as np
import pytest

from repro.bitstream.bitlinker import Placement
from repro.core.multiregion import build_system64_dual
from repro.core.reconfig import ReconfigManager
from repro.errors import InvariantError
from repro.faults.sampling import (
    DEFAULT_MC_KINDS,
    REGION_DYNAMIC,
    REGION_STATIC,
    REGION_UNUSED,
    build_fault_space,
    essential_bit_map,
    popcount_rows,
    sample_fault_load,
    sample_fault_loads,
)
from repro.kernels import BrightnessKernel, JenkinsHashKernel
from repro.scenarios.rigs import build_rig64


@pytest.fixture(scope="module")
def rig():
    system, manager = build_rig64()
    manager.load_robust("brightness")
    return system, manager


@pytest.fixture(scope="module")
def space(rig):
    system, manager = rig
    component = manager.component("brightness")
    staged = manager.bitlinker.link(
        [Placement(component, col_offset=0, row_offset=0)]
    )
    return build_fault_space(system.config_memory, manager.region, staged, 3)


# -- popcount -----------------------------------------------------------------

def test_popcount_matches_python_bin():
    rng = np.random.default_rng(4)
    words = rng.integers(0, 2**32, size=(7, 5), dtype=np.uint64).astype(np.uint32)
    expected = [sum(bin(int(w)).count("1") for w in row) for row in words]
    assert popcount_rows(words).tolist() == expected


# -- essential_bit_map --------------------------------------------------------

def test_unwritten_frames_contribute_no_essential_bits():
    # A full rig writes every frame, so the "unused" stratum needs a
    # partially configured memory: one static frame and one region frame
    # written, everything else untouched.
    from repro.fabric.config_memory import ConfigMemory
    from repro.fabric.device import XC2VP4
    from repro.fabric.geometry import Rect
    from repro.fabric.region import Region

    memory = ConfigMemory(XC2VP4)
    region = Region(XC2VP4, Rect(12, 8, 4, 16))
    geometry = memory.geometry
    static_addr = geometry.frame_order()[0]
    region_addr = region.frame_addresses[0]
    frame = np.zeros(geometry.words_per_frame, dtype=np.uint32)
    frame[3] = 0xA5A5A5A5
    memory.write_frame(static_addr, frame)
    memory.write_frame(region_addr, frame)

    essential, region_class = essential_bit_map(memory, region)
    written = memory.written_mask()
    unwritten = ~written
    assert np.count_nonzero(unwritten) > 0
    # Strikes outside written frames are benign by construction: not one
    # essential bit lives there, and the stratum label says "unused" —
    # even for *unwritten* frames inside the region's column span.
    assert not essential[unwritten].any()
    assert (region_class[unwritten] == REGION_UNUSED).all()
    unwritten_region_rows = [
        row
        for row in geometry.frame_rows(region.frame_addresses).tolist()
        if not written[row]
    ]
    assert unwritten_region_rows  # the region has unwritten frames here
    assert (region_class[unwritten_region_rows] == REGION_UNUSED).all()

    # The written region frame owns its full row span; the static frame
    # exposes exactly its set bits.
    row_mask = geometry.row_mask(region.rect.row, region.rect.row_end)
    region_row = geometry.frame_index(region_addr)
    static_row = geometry.frame_index(static_addr)
    assert region_class[region_row] == REGION_DYNAMIC
    assert region_class[static_row] == REGION_STATIC
    assert ((essential[region_row] & row_mask) == row_mask).all()
    assert np.array_equal(essential[static_row], frame)


def test_static_frames_expose_exactly_their_set_bits(rig):
    system, manager = rig
    essential, region_class = essential_bit_map(
        system.config_memory, manager.region
    )
    static = region_class == REGION_STATIC
    assert np.count_nonzero(static) > 0
    rows = np.flatnonzero(static)
    data = system.config_memory.data_rows(rows)
    assert np.array_equal(essential[rows], data)


def test_dynamic_frames_carry_the_full_row_span(rig):
    system, manager = rig
    geometry = system.config_memory.geometry
    essential, region_class = essential_bit_map(
        system.config_memory, manager.region
    )
    dynamic = np.flatnonzero(region_class == REGION_DYNAMIC)
    assert dynamic.size > 0
    row_mask = geometry.row_mask(
        manager.region.rect.row, manager.region.rect.row_end
    )
    # Every bit in the region's row span is essential while a kernel is
    # resident, set or cleared — the map is a superset of the mask.
    assert ((essential[dynamic] & row_mask) == row_mask).all()
    region_rows = set(geometry.frame_rows(manager.region.frame_addresses).tolist())
    assert set(dynamic.tolist()) <= region_rows


def test_essential_map_under_differential_loads():
    # A second (differential) load rewrites the dynamic frames' golden
    # contents...
    system, manager = build_rig64()
    manager.load_robust("brightness")
    total = system.config_memory.geometry.frame_count()
    rows = np.arange(total, dtype=np.int64)
    before, _ = essential_bit_map(system.config_memory, manager.region)
    data_before = system.config_memory.data_rows(rows).copy()
    manager.load_robust("lookup2")
    data_after = system.config_memory.data_rows(rows)
    assert not np.array_equal(data_before, data_after)
    # ...but the essential map is *kernel-independent* by construction:
    # the two kernels differ only inside the region's row span, and
    # every bit of the span is essential whichever kernel owns it.  The
    # map derived after the differential load must still match.
    after, region_class = essential_bit_map(system.config_memory, manager.region)
    assert np.array_equal(before, after)
    changed_rows = np.flatnonzero((data_before != data_after).any(axis=1))
    assert (region_class[changed_rows] == REGION_DYNAMIC).all()
    # Static frames keep exposing exactly their (unchanged) set bits.
    static_rows = np.flatnonzero(region_class == REGION_STATIC)
    assert np.array_equal(after[static_rows], data_after[static_rows])


def test_essential_map_with_two_dynamic_regions():
    system, slot = build_system64_dual()
    manager_a = ReconfigManager(system)
    manager_b = ReconfigManager(system, slot=slot)
    manager_a.register(BrightnessKernel(16))
    manager_b.register(JenkinsHashKernel())
    manager_a.load("brightness")
    manager_b.load("lookup2")

    _, class_a = essential_bit_map(system.config_memory, manager_a.region)
    _, class_b = essential_bit_map(system.config_memory, manager_b.region)
    dynamic_a = np.flatnonzero(class_a == REGION_DYNAMIC)
    dynamic_b = np.flatnonzero(class_b == REGION_DYNAMIC)
    assert dynamic_a.size > 0 and dynamic_b.size > 0
    # The regions are disjoint, so each map's dynamic stratum is its own
    # region's frames and the *other* slot's frames land in "static".
    assert not set(dynamic_a.tolist()) & set(dynamic_b.tolist())
    assert (class_b[dynamic_a] == REGION_STATIC).all()
    assert (class_a[dynamic_b] == REGION_STATIC).all()


# -- FaultSpace ---------------------------------------------------------------

def test_space_shapes_and_layout(space):
    assert space.written_rows.shape == (space.total_frames,)
    assert space.essential.shape == (space.total_frames, space.words_per_frame)
    assert space.total_bits == space.total_frames * space.words_per_frame * 32
    for layout in (space.frame_blocks, space.frame_cols, space.frame_minors):
        assert layout.shape == (space.total_frames,)


def test_space_arrays_are_read_only_so_cached_counts_hold(space):
    # The per-frame essential-bit counts are computed once at construction;
    # they stay sound only because no array they derive from can change.
    counts = space.essential_counts()
    assert np.array_equal(counts, popcount_rows(space.essential))
    assert space.essential_counts() is counts
    for name in (
        "written_rows", "region_class", "essential", "load_rows",
        "payload_indices", "frame_blocks", "frame_cols", "frame_minors",
    ):
        array = getattr(space, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(ValueError, match="read-only"):
        space.essential[0, 0] ^= np.uint32(1)
    with pytest.raises(ValueError, match="read-only"):
        counts[0] = 0


def test_analytic_vulnerability_decomposes_over_regions(space):
    counts = {
        region: int(np.count_nonzero(space.region_class == region))
        for region in (REGION_UNUSED, REGION_STATIC, REGION_DYNAMIC)
    }
    weighted = sum(
        space.analytic_vulnerability(region) * frames
        for region, frames in counts.items()
    )
    assert weighted / space.total_frames == pytest.approx(
        space.analytic_vulnerability()
    )
    assert space.analytic_vulnerability(REGION_UNUSED) == 0.0
    assert (
        space.analytic_vulnerability(REGION_DYNAMIC)
        > space.analytic_vulnerability(REGION_STATIC)
        > 0.0
    )


def test_frame_vulnerability_bounds(space):
    values = space.frame_vulnerability()
    assert values.shape == (space.total_frames,)
    assert float(values.min()) >= 0.0 and float(values.max()) <= 1.0
    dynamic = space.region_class == REGION_DYNAMIC
    # Dynamic frames carry the row-span mask on top of their set bits,
    # so on average they are hotter than the static remainder.
    assert values[dynamic].mean() > values[~dynamic].mean()


# -- sample_fault_load --------------------------------------------------------

def test_loads_are_deterministic_and_kind_independent(space):
    one = sample_fault_loads(space, DEFAULT_MC_KINDS, 500, seed=2006)
    two = sample_fault_loads(space, DEFAULT_MC_KINDS, 500, seed=2006)
    assert one["upset"].rows.tolist() == two["upset"].rows.tolist()
    assert one["seu"].stream_pos.tolist() == two["seu"].stream_pos.tolist()
    assert one["commit"].fail_counts.tolist() == two["commit"].fail_counts.tolist()
    # Distinct kinds draw from distinct derived streams.
    assert one["upset"].seed != one["post-commit"].seed
    assert one["upset"].words.tolist() != one["post-commit"].words.tolist()
    other = sample_fault_load(space, "upset", 500, seed=2007)
    assert other.rows.tolist() != one["upset"].rows.tolist()


def test_load_coordinates_stay_in_bounds(space):
    trials = 2000
    upset = sample_fault_load(space, "upset", trials, seed=1)
    assert int(upset.rows.max()) < space.total_frames
    assert int(upset.words.max()) < space.words_per_frame
    assert int(upset.bits.max()) < 32

    post = sample_fault_load(space, "post-commit", trials, seed=1)
    assert set(post.rows.tolist()) <= set(space.load_rows.tolist())

    seu = sample_fault_load(space, "seu", trials, seed=1)
    assert int(seu.stream_pos.max()) < space.payload_indices.size

    commit = sample_fault_load(space, "commit", trials, seed=1)
    assert int(commit.fail_counts.min()) >= 1
    assert int(commit.fail_counts.max()) <= space.max_attempts


def test_unknown_kind_and_bad_trials_rejected(space):
    with pytest.raises(InvariantError):
        sample_fault_load(space, "meteor", 10, seed=1)
    with pytest.raises(InvariantError):
        sample_fault_load(space, "upset", 0, seed=1)
