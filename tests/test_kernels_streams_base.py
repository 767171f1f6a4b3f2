"""Tests for the stream-utility kernels and the BaseKernel machinery."""

import pytest

from repro.errors import KernelError
from repro.kernels.streams import CounterSourceKernel, LoopbackKernel, SinkKernel


# -- sink ------------------------------------------------------------------------

def test_sink_counts_words():
    sink = SinkKernel()
    sink.consume(1, 32)
    sink.consume(2, 32)
    assert sink.words == 2
    assert sink.last == 2
    assert sink.produce() == []


def test_sink_register_interface():
    sink = SinkKernel()
    sink.consume(0xAB, 32)
    assert sink.read_register(0x0) == 1
    assert sink.read_register(0x4) == 0xAB


def test_sink_reset():
    sink = SinkKernel()
    sink.consume(1, 32)
    sink.reset()
    assert sink.words == 0


# -- source ----------------------------------------------------------------------

def test_source_generates_sequence():
    source = CounterSourceKernel(seed=100)
    source.generate(3)
    assert source.produce() == [100, 101, 102]


def test_source_register_reads_advance():
    source = CounterSourceKernel(seed=5)
    assert source.read_register(0) == 5
    assert source.read_register(0) == 6


def test_source_rejects_writes():
    with pytest.raises(KernelError):
        CounterSourceKernel().consume(1, 32)


def test_source_width_masking():
    source = CounterSourceKernel(seed=(1 << 40))
    source.generate(1, width_bits=32)
    assert source.produce() == [0]


# -- loopback ---------------------------------------------------------------------

def test_loopback_echoes():
    loop = LoopbackKernel()
    loop.consume(42, 32)
    assert loop.produce() == [42]


def test_loopback_pipeline_delay():
    loop = LoopbackKernel(pipeline_depth=3)
    loop.consume(1, 32)
    loop.consume(2, 32)
    assert loop.produce() == []
    loop.consume(3, 32)
    assert loop.produce() == [1]
    loop.flush()
    assert loop.produce() == [2, 3]


def test_loopback_depth_validated():
    with pytest.raises(KernelError):
        LoopbackKernel(pipeline_depth=0)


# -- BaseKernel component synthesis --------------------------------------------------

def test_component_width_scales_with_slices():
    small = SinkKernel().make_component(32, 11)
    big = LoopbackKernel().make_component(32, 11)
    assert small.width >= 2
    assert big.width >= small.width


def test_component_64bit_needs_more_slices():
    sink = SinkKernel()
    assert sink.slice_demand(64) > sink.slice_demand(32)


def test_unsupported_width_rejected():
    with pytest.raises(KernelError):
        SinkKernel().slice_demand(16)


def test_component_rejects_too_short_region():
    with pytest.raises(KernelError):
        SinkKernel().make_component(64, 4)
