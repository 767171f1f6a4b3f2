"""Tests for bus macros and ports."""

import pytest

from repro.bitstream.busmacro import (
    BusMacro,
    Direction,
    MacroKind,
    Port,
    Side,
    standard_data_macros,
)
from repro.errors import PortMismatchError


def test_lut_macro_slice_cost():
    macro = BusMacro("m", MacroKind.LUT, width=32)
    assert macro.slices_per_side == 16  # two signals per slice


def test_tristate_macro_costs_more_area():
    # "LUT-based bus macros ... consume less area" (than tristate ones)
    lut = BusMacro("l", MacroKind.LUT, width=8)
    tri = BusMacro("t", MacroKind.TRISTATE, width=8)
    assert lut.resource_cost().slices < tri.resource_cost().slices
    assert tri.resource_cost().tbufs == 16
    assert lut.resource_cost().tbufs == 0


def test_rows_spanned():
    macro = BusMacro("m", MacroKind.LUT, width=32)
    assert macro.rows_spanned == 4  # 16 slices / 4 per row


def test_zero_width_rejected():
    with pytest.raises(PortMismatchError):
        BusMacro("m", MacroKind.LUT, width=0)


def test_negative_offset_rejected():
    with pytest.raises(PortMismatchError):
        BusMacro("m", MacroKind.LUT, width=1, row_offset=-1)


def test_shape_key_ignores_name():
    a = BusMacro("a", MacroKind.LUT, width=4, row_offset=2)
    b = BusMacro("b", MacroKind.LUT, width=4, row_offset=2)
    assert a.shape_key() == b.shape_key()


def test_ports_mate_when_compatible():
    macro = BusMacro("m", MacroKind.LUT, width=8)
    out_port = Port(macro, Side.RIGHT, Direction.OUT)
    in_port = Port(macro, Side.LEFT, Direction.IN)
    assert out_port.mates_with(in_port)
    assert in_port.mates_with(out_port)


def test_ports_same_side_do_not_mate():
    macro = BusMacro("m", MacroKind.LUT, width=8)
    a = Port(macro, Side.LEFT, Direction.OUT)
    b = Port(macro, Side.LEFT, Direction.IN)
    assert not a.mates_with(b)


def test_ports_same_direction_do_not_mate():
    macro = BusMacro("m", MacroKind.LUT, width=8)
    a = Port(macro, Side.RIGHT, Direction.OUT)
    b = Port(macro, Side.LEFT, Direction.OUT)
    assert not a.mates_with(b)


def test_ports_shape_mismatch_do_not_mate():
    a = Port(BusMacro("m", MacroKind.LUT, width=8), Side.RIGHT, Direction.OUT)
    b = Port(BusMacro("m", MacroKind.LUT, width=16), Side.LEFT, Direction.IN)
    assert not a.mates_with(b)


def test_standard_data_macros_no_overlap():
    write, read, ctrl = standard_data_macros(32)
    assert write.row_offset + write.rows_spanned <= read.row_offset
    assert read.row_offset + read.rows_spanned <= ctrl.row_offset


def test_standard_data_macros_64bit_fit_region_height():
    write, read, ctrl = standard_data_macros(64)
    assert ctrl.row_offset + ctrl.rows_spanned <= 24  # 64-bit region height


def test_side_and_direction_opposites():
    assert Side.LEFT.opposite is Side.RIGHT
    assert Direction.IN.opposite is Direction.OUT
