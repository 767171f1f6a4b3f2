"""Bit-level helpers for frame manipulation.

Frame data is stored as ``uint32`` word arrays; configuration bit ``i`` of a
frame lives at bit ``i % 32`` of word ``i // 32``.  For sub-word operations
(placing a component's rows at an arbitrary bit offset) frames are converted
to arbitrary-precision integers, manipulated, and converted back.  Frames
are on the order of 100-250 words, and BitLinker runs this once per
distinct placement (its :func:`~repro.bitstream.bitlinker.placement_block`
memo), not once per link, so it stays off the hot path while keeping the
placement logic exact and readable.
"""

from __future__ import annotations

import hashlib

import numpy as np


def words_to_int(words: np.ndarray) -> int:
    """Pack a uint32 word array into one big integer.

    Word ``w`` occupies bits ``[32*w, 32*w+32)`` of the result, matching the
    frame bit-numbering used throughout :mod:`repro.fabric.frames`.
    """
    words = np.asarray(words, dtype=np.uint32)
    return int.from_bytes(words.astype("<u4").tobytes(), "little")


def int_to_words(value: int, word_count: int) -> np.ndarray:
    """Inverse of :func:`words_to_int`; truncates bits beyond the buffer."""
    if value < 0:
        raise ValueError("bit buffer value must be non-negative")
    data = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "little")
    buf = np.zeros(word_count * 4, dtype=np.uint8)
    usable = min(len(data), buf.size)
    buf[:usable] = np.frombuffer(data[:usable], dtype=np.uint8)
    return buf.view("<u4").astype(np.uint32)


def place_bits(frame: np.ndarray, bit_offset: int, content: int, bit_count: int) -> np.ndarray:
    """Overwrite ``bit_count`` bits of ``frame`` starting at ``bit_offset``.

    Returns a new word array; bits outside the span are preserved.  This is
    the primitive used to drop a component's rows into a shared frame.
    """
    if bit_offset < 0 or bit_count < 0:
        raise ValueError("bit offset/count must be non-negative")
    total_bits = len(frame) * 32
    if bit_offset + bit_count > total_bits:
        raise ValueError(
            f"span [{bit_offset},{bit_offset + bit_count}) exceeds frame of {total_bits} bits"
        )
    mask = ((1 << bit_count) - 1) << bit_offset
    merged = (words_to_int(frame) & ~mask) | ((content << bit_offset) & mask)
    return int_to_words(merged, len(frame))


def extract_bits(frame: np.ndarray, bit_offset: int, bit_count: int) -> int:
    """Read ``bit_count`` bits of ``frame`` starting at ``bit_offset``."""
    if bit_offset < 0 or bit_count < 0:
        raise ValueError("bit offset/count must be non-negative")
    return (words_to_int(frame) >> bit_offset) & ((1 << bit_count) - 1)


def deterministic_bits(seed: str, bit_count: int) -> int:
    """``bit_count`` pseudo-random bits derived deterministically from ``seed``.

    Used to synthesise stable, relocatable "configuration content" for
    component models: the same component produces the same bits wherever it
    is placed, which is what makes BitLinker-style relocation testable.
    """
    if bit_count < 0:
        raise ValueError("bit_count must be non-negative")
    out = bytearray()
    counter = 0
    while len(out) * 8 < bit_count:
        out.extend(hashlib.sha256(f"{seed}#{counter}".encode()).digest())
        counter += 1
    value = int.from_bytes(bytes(out), "little")
    return value & ((1 << bit_count) - 1)
