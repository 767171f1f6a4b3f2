"""Hardware image-processing kernels (8-bit grayscale).

The three tasks of Tables 5 and 12.  The PPC405 has no packed-SIMD
extension (no AltiVec/MMX), so these operations are natural candidates for
the dynamic area:

* **Brightness adjustment** — saturating add of a signed constant;
  one pixel per byte lane, so 4 pixels per 32-bit transfer or 8 per 64-bit.
* **Additive blending** — saturating add of two images; each input word
  interleaves lanes from both images (half from A, half from B) and yields
  half a word of output pixels, packed into full words before read-back
  ("in order to save on read operations").
* **Fade effect** — ``(A - B) * f + B`` with an 8.8 fixed-point factor
  ``f``; same I/O pattern as blending.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from ..errors import KernelError
from .base import FLUSH_OFFSET, REG_LANES, PackingKernel

__all__ = [
    "FLUSH_OFFSET",
    "PARAM_OFFSET",
    "REG_PIXELS",
    "BlendKernel",
    "BrightnessKernel",
    "FadeKernel",
    "interleave_images",
    "saturate_u8",
]

#: Control offset to set the brightness constant / fade factor.
PARAM_OFFSET = 0x8

REG_PIXELS = REG_LANES


def saturate_u8(value: int) -> int:
    """Clamp to the 0..255 range."""
    if value < 0:
        return 0
    if value > 255:
        return 255
    return value


@lru_cache(maxsize=64)
def _brightness_map(constant: int) -> bytes:
    """Pixel -> saturated ``pixel + constant``, as a ``bytes.translate`` table."""
    return bytes(saturate_u8(v + constant) for v in range(256))


def _lane_pairs() -> tuple[np.ndarray, np.ndarray]:
    """Lanes A and B of every pair, broadcast so that element ``[B, A]``
    sits at the pair's little-endian 16-bit value ``A | B << 8``."""
    lanes = np.arange(256, dtype=np.int32)
    return lanes[None, :], lanes[:, None]


@lru_cache(maxsize=1)
def _blend_map() -> np.ndarray:
    """Lane pair -> saturated ``A + B``."""
    a, b = _lane_pairs()
    return np.minimum(a + b, 255).astype(np.uint8).ravel()


@lru_cache(maxsize=16)
def _fade_map(factor_fx: int) -> np.ndarray:
    """Lane pair -> saturated ``((A - B) * f >> 8) + B`` (arithmetic shift,
    the same floor as Python's)."""
    a, b = _lane_pairs()
    return np.clip(((a - b) * factor_fx >> 8) + b, 0, 255).astype(np.uint8).ravel()


class BrightnessKernel(PackingKernel):
    """Saturating add of a signed constant to every pixel."""

    name = "brightness"
    SLICES_32 = 148

    def __init__(self, constant: int = 0) -> None:
        super().__init__()
        if not -255 <= constant <= 255:
            raise KernelError(f"brightness constant {constant} out of range")
        self.constant = constant

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        if offset == PARAM_OFFSET:
            raw = value & 0x1FF
            self.constant = raw - 512 if raw & 0x100 else raw
        else:
            super()._control(offset, value, width_bits)

    def _absorb(self, data: bytes, width_bits: int) -> None:
        self._pack_lanes(data.translate(_brightness_map(self.constant)), width_bits)


class BlendKernel(PackingKernel):
    """Saturating add of two images.

    Each input word carries lanes ``A0 B0 A1 B1 ...`` (half from each
    image); each pair produces one output pixel ``sat(A + B)``.
    """

    name = "blend"
    SLICES_32 = 236

    def _absorb(self, data: bytes, width_bits: int) -> None:
        self._pack_lanes(_blend_map()[np.frombuffer(data, "<u2")].tobytes(), width_bits)


class FadeKernel(PackingKernel):
    """Fade-in/fade-out: ``(A - B) * f + B`` with 8.8 fixed-point ``f``.

    ``f`` in [0, 1] maps to factor 0..256; the multiply uses one of the
    fabric's 18x18 multiplier blocks.  Lanes pair up as in blending.
    """

    name = "fade"
    SLICES_32 = 322
    MULTS = 1

    def __init__(self, factor: float = 0.5) -> None:
        super().__init__()
        self.set_factor(factor)

    def set_factor(self, factor: float) -> None:
        if not 0.0 <= factor <= 1.0:
            raise KernelError(f"fade factor {factor} outside [0, 1]")
        self.factor_fx = round(factor * 256)

    def _control(self, offset: int, value: int, width_bits: int) -> None:
        if offset == PARAM_OFFSET:
            self.factor_fx = value & 0x1FF
        else:
            super()._control(offset, value, width_bits)

    def _absorb(self, data: bytes, width_bits: int) -> None:
        pairs = np.frombuffer(data, "<u2")
        self._pack_lanes(_fade_map(self.factor_fx)[pairs].tobytes(), width_bits)


def interleave_images(a_pixels: List[int], b_pixels: List[int]) -> List[int]:
    """The CPU-side "data preparation" for blend/fade: interleave lanes.

    This is exactly the combining work the paper charges to the hardware
    path ("the data of the two source images had to be combined by the CPU,
    before being sent to the dynamic area").
    """
    if len(a_pixels) != len(b_pixels):
        raise KernelError("images must have the same size to combine")
    out: List[int] = []
    for a, b in zip(a_pixels, b_pixels):
        out.append(a & 0xFF)
        out.append(b & 0xFF)
    return out
