"""Tests for dynamic regions and floorplan search."""

import pytest

from repro.errors import RegionError
from repro.fabric.device import XC2VP7, XC2VP30
from repro.fabric.geometry import Rect
from repro.fabric.region import Region, candidate_regions, find_region


def test_paper_region_32bit():
    # "The dynamic region ... contains 6 RAM blocks and 28x11 = 308 CLBs ...
    #  25% of the total number of slices"
    region = find_region(XC2VP7, 28, 11, bram_blocks=6)
    assert region.clb_count == 308
    assert region.resources.slices == 1232
    assert region.resources.bram_blocks == 6
    assert abs(region.slice_fraction - 0.25) < 1e-9


def test_paper_region_64bit():
    # "contains 22 BRAMs and 32x24 = 768 CLBs, i.e., 3072 slices (22.4%)"
    region = find_region(XC2VP30, 32, 24, bram_blocks=22)
    assert region.clb_count == 768
    assert region.resources.slices == 3072
    assert region.resources.bram_blocks == 22
    assert abs(region.slice_fraction - 0.224) < 0.001


def test_region_rejects_cpu_overlap():
    cpu = XC2VP7.cpu_blocks[0]
    with pytest.raises(RegionError, match="CPU"):
        Region(XC2VP7, Rect(cpu.col, cpu.row, 2, 2))


def test_region_rejects_out_of_grid():
    with pytest.raises(RegionError):
        Region(XC2VP7, Rect(0, 0, XC2VP7.clb_cols + 1, 1))


def test_full_height_detection():
    region = Region(XC2VP7, Rect(10, 0, 2, XC2VP7.clb_rows))
    assert region.full_height


def test_partial_height_does_not_isolate():
    region = find_region(XC2VP7, 28, 11, bram_blocks=6)
    assert not region.full_height


def test_frame_addresses_cover_all_columns():
    region = find_region(XC2VP7, 28, 11, bram_blocks=6)
    majors = {f.major for f in region.frame_addresses if f.block.name == "CLB"}
    assert majors == set(range(region.rect.col, region.rect.col_end))


def test_frame_count_includes_bram_columns():
    region = find_region(XC2VP7, 28, 11, bram_blocks=6)
    clb_only = region.rect.width * 22
    assert region.frame_count > clb_only


def test_find_region_too_large_raises():
    with pytest.raises(RegionError):
        find_region(XC2VP7, XC2VP7.clb_cols + 1, 4)


def test_find_region_impossible_bram_count():
    with pytest.raises(RegionError, match="BRAM"):
        find_region(XC2VP7, 2, 2, bram_blocks=40)


def test_find_region_avoid_rectangles():
    first = find_region(XC2VP7, 10, 10)
    second = find_region(XC2VP7, 10, 10, avoid=[first.rect])
    assert not first.rect.overlaps(second.rect)


def test_candidate_regions_avoid_cpu():
    for region in candidate_regions(XC2VP7, 30, 30):
        for block in XC2VP7.cpu_blocks:
            assert not region.rect.overlaps(block)


def test_candidate_regions_nonempty():
    assert any(True for _ in candidate_regions(XC2VP7, 5, 5))


def test_region_str_mentions_device():
    region = find_region(XC2VP7, 4, 4)
    assert "XC2VP7" in str(region)
