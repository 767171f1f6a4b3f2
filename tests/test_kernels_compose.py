"""Tests for composite (chained) kernels."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import BrightnessKernel, LoopbackKernel
from repro.kernels.compose import STAGE_WINDOW, CompositeKernel, InvertKernel
from repro.kernels.image_ops import PARAM_OFFSET
from repro.sw.image_ops import brightness_ref


def feed(kernel, pixels, width_bits=32):
    per_word = width_bits // 8
    for i in range(0, len(pixels), per_word):
        chunk = pixels[i : i + per_word]
        kernel.consume(sum(int(p) << (8 * j) for j, p in enumerate(chunk)), width_bits, 0)
    out = []
    for word in kernel.produce():
        out.extend((word >> (8 * j)) & 0xFF for j in range(per_word))
    return out[: len(pixels)]


def test_invert_kernel():
    kernel = InvertKernel()
    assert feed(kernel, [0x00, 0xFF, 0xA5, 0x3C]) == [0xFF, 0x00, 0x5A, 0xC3]


def test_composite_requires_stages():
    with pytest.raises(KernelError):
        CompositeKernel([])


def test_composite_name_and_depth():
    composite = CompositeKernel([BrightnessKernel(10), InvertKernel()])
    assert composite.name == "brightness+invert"
    assert composite.PIPELINE_DEPTH == BrightnessKernel(10).PIPELINE_DEPTH + 1


def test_composite_chains_functionally():
    """brightness -> invert == invert(brightness(x)) per pixel."""
    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 256, size=32, dtype=np.uint8)
    composite = CompositeKernel([BrightnessKernel(40), InvertKernel()])
    out = feed(composite, pixels)
    expected = [(~int(p) & 0xFF) for p in brightness_ref(pixels, 40)]
    assert out == expected


def test_composite_three_stages():
    pixels = np.arange(16, dtype=np.uint8)
    composite = CompositeKernel(
        [BrightnessKernel(10), InvertKernel(), BrightnessKernel(5)]
    )
    out = feed(composite, pixels)
    step1 = brightness_ref(pixels, 10)
    step2 = np.array([~int(p) & 0xFF for p in step1], dtype=np.uint8)
    step3 = brightness_ref(step2, 5)
    assert out == list(step3)


def test_composite_stage_registers_addressable():
    composite = CompositeKernel([BrightnessKernel(0), BrightnessKernel(0)])
    composite.consume(25, 32, PARAM_OFFSET)  # stage 0
    composite.consume(50, 32, STAGE_WINDOW + PARAM_OFFSET)  # stage 1
    assert composite.stages[0].constant == 25
    assert composite.stages[1].constant == 50


def test_composite_register_reads_segmented():
    composite = CompositeKernel([BrightnessKernel(1), InvertKernel()])
    feed(composite, np.zeros(8, dtype=np.uint8))
    assert composite.read_register(0x0) == 8  # stage 0 pixel counter
    assert composite.read_register(2 * STAGE_WINDOW) == 0  # beyond last stage


def test_composite_reset_resets_stages():
    composite = CompositeKernel([BrightnessKernel(1), InvertKernel()])
    feed(composite, np.zeros(8, dtype=np.uint8))
    composite.reset()
    assert composite.stages[0].read_register(0x0) == 0


def test_composite_end_to_end_through_dock(system32):
    """Attach the composite to the dock and stream an image through it."""
    composite = CompositeKernel([BrightnessKernel(30), InvertKernel()])
    system32.dock.attach_kernel(composite)
    cpu = system32.cpu
    pixels = np.arange(32, dtype=np.uint8)
    words = [int(v) for v in pixels.view("<u4")]
    outs = []
    for word in words:
        cpu.io_write(system32.dock.base, word)
        outs.append(cpu.io_read(system32.dock.base))
    result = np.array(outs, dtype="<u4").view(np.uint8)[: pixels.size]
    expected = np.array([~int(p) & 0xFF for p in brightness_ref(pixels, 30)], dtype=np.uint8)
    assert np.array_equal(result, expected)


def test_flush_through_loopback_emits_no_spurious_word():
    """A loopback stage drains on flush instead of echoing the flush write."""
    composite = CompositeKernel([LoopbackKernel(1), BrightnessKernel(5)])
    composite.consume(0x01020304, 32, 0)
    composite.flush()
    assert composite.produce() == [0x06070809]
    assert composite.read_register(STAGE_WINDOW) == 4

    loopback, brightness = LoopbackKernel(1), BrightnessKernel(5)
    loopback.consume(0x01020304, 32, 0)
    loopback.flush()
    for word in loopback.produce():
        brightness.consume(word, 32, 0)
    brightness.flush()
    assert brightness.produce() == [0x06070809]
    assert brightness.read_register(0) == 4
