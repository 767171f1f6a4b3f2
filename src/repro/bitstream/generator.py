"""Frame-image generation.

Builds the frame contents that the rest of the toolchain manipulates:

* :func:`initialize_static_configuration` fills a :class:`ConfigMemory`
  with the static design's bits and leaves the dynamic region's rows clear —
  the state of the device right after boot-time (full) configuration.
* :func:`placement_frame_content` computes the bits one placed component
  contributes to one frame.

Frame bit numbering follows :mod:`repro.fabric.frames`: row ``r`` of the
device occupies frame bits ``[r*B, (r+1)*B)`` with ``B = bits_per_frame_row``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import LinkError
from ..fabric.config_memory import ConfigMemory, ConfigSnapshot
from ..fabric.frames import BlockType, FrameAddress, FrameGeometry
from ..fabric.region import Region
from .bits import deterministic_bits, int_to_words, place_bits


def full_configuration_frames(
    memory: ConfigMemory, seed: str
) -> Dict[FrameAddress, np.ndarray]:
    """Deterministic full-device configuration image keyed by ``seed``.

    Models the output of the standard (non-partial) design flow for the
    static system: every frame carries content derived from the seed.
    """
    geometry = memory.geometry
    frames: Dict[FrameAddress, np.ndarray] = {}
    total_bits = geometry.words_per_frame * 32
    for address in geometry.all_frames():
        content = deterministic_bits(f"{seed}/{address.block}/{address.major}/{address.minor}", total_bits)
        frames[address] = int_to_words(content, geometry.words_per_frame)
    return frames


class RigMemoTelemetry:
    """Counters for the rig-level static-configuration memo (observability
    for tests and the sweep CLI; not part of any simulated statistic)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


_RIG_TELEMETRY = RigMemoTelemetry()

#: In-process memo: key -> (static image, write count).
_STATIC_MEMO: Dict[str, Tuple[ConfigSnapshot, int]] = {}


def rig_memo_telemetry() -> RigMemoTelemetry:
    return _RIG_TELEMETRY


def reset_rig_memo() -> None:
    """Drop all memoized static configurations (tests / cache hygiene)."""
    _STATIC_MEMO.clear()
    _RIG_TELEMETRY.reset()


def static_configuration_key(
    memory: ConfigMemory, region: Optional[Region], seed: str
) -> str:
    """Content address of one static-configuration result.

    The generated image is fully determined by the device geometry, the
    region rectangle (whose rows are blanked) and the seed string.  The
    memo lives in one process and cannot outlive a source edit, so the key
    carries no code fence.
    """
    device = memory.device
    region_part = "none" if region is None else repr(region.rect)
    text = "\n".join(
        [
            device.name,
            str(device.total_frames),
            str(memory.geometry.words_per_frame),
            region_part,
            seed,
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def initialize_static_configuration(
    memory: ConfigMemory, region: Optional[Region], seed: str
) -> None:
    """Load the static design into ``memory`` and clear the dynamic region.

    After this, frames covering the region's columns still contain static
    bits in the rows *above and below* the region — the exact hazard the
    paper's partial configurations must not disturb.

    The result is memoized per (device, region, seed): every rig built
    for the same scenario parameters produces the identical image, so the
    frame generation loop runs once per key and later builds restore its
    snapshot (same data, same ``writes`` accounting).
    """
    key = static_configuration_key(memory, region, seed)
    hit = _STATIC_MEMO.get(key)
    if hit is not None:
        _RIG_TELEMETRY.hits += 1
        image, n_writes = hit
        memory.restore(image)
        memory.writes += n_writes
        return
    _RIG_TELEMETRY.misses += 1

    writes_before = memory.writes
    frames = full_configuration_frames(memory, seed)
    region_mask = None
    region_addresses: set[FrameAddress] = set()
    if region is not None:
        region_mask = memory.geometry.row_mask(region.rect.row, region.rect.row_end)
        region_addresses = set(region.frame_addresses)
    for address, data in frames.items():
        if region_mask is not None and address in region_addresses:
            data = data & ~region_mask
        memory.write_frame(address, data)
    _STATIC_MEMO[key] = (memory.snapshot(), memory.writes - writes_before)


def placement_frame_content(
    geometry: FrameGeometry,
    region: Region,
    component,  # ComponentConfig; untyped to avoid a circular import
    col_offset: int,
    row_offset: int,
    address: FrameAddress,
    frame: np.ndarray,
) -> np.ndarray:
    """Merge one component placement's bits into ``frame`` for ``address``.

    ``col_offset``/``row_offset`` are relative to the region's lower-left
    corner.  Returns the updated frame; frames not touched by the placement
    are returned unchanged.
    """
    device = geometry.device
    bits_per_row = device.bits_per_frame_row
    abs_col0 = region.rect.col + col_offset
    abs_row0 = region.rect.row + row_offset

    if address.block is BlockType.CLB:
        rel_col = address.major - abs_col0
        if not 0 <= rel_col < component.width:
            return frame
        content = component.column_bits(rel_col, address.minor, bits_per_row)
        return place_bits(frame, abs_row0 * bits_per_row, content, component.height * bits_per_row)

    # BRAM interconnect/content frames: contributed when the component's
    # x-span covers the BRAM column's position.
    bram_col = device.bram_columns[address.major].col
    if not abs_col0 <= bram_col < abs_col0 + component.width:
        return frame
    rel_col = bram_col - abs_col0
    if address.block is BlockType.BRAM_INTERCONNECT:
        content = component.column_bits(rel_col, address.minor, bits_per_row)
    else:
        span_bits = component.height * bits_per_row
        content = (
            deterministic_bits(
                f"{component.name}@v{component.version}/bramcol{rel_col}/minor{address.minor}",
                span_bits,
            )
            if component.resources.bram_blocks
            else 0
        )
    return place_bits(frame, abs_row0 * bits_per_row, content, component.height * bits_per_row)


def verify_preserves_static(memory_before: ConfigMemory, memory_after: ConfigMemory, region: Region) -> bool:
    """Check that only the region's rows changed between two memory states.

    Returns True when every frame outside the region's columns is
    bit-identical and, within region columns, all bits outside the region's
    row span are identical.

    Compares the union of both memories' written frames in a handful of
    array operations.  Both memories' ``reads`` advance by the size of that
    union whether the check passes or fails: a failure is not fatal
    (:meth:`~repro.core.reconfig.ReconfigManager.load_robust` rolls back
    and retries), so the accounting must not depend on where it failed.
    """
    geometry = memory_before.geometry
    if geometry.device is not memory_after.geometry.device:
        raise LinkError("cannot compare configuration memories of different devices")
    rows = np.flatnonzero(memory_before.written_mask() | memory_after.written_mask())
    memory_before.reads += len(rows)
    memory_after.reads += len(rows)
    before_rows = memory_before.data_rows(rows)
    after_rows = memory_after.data_rows(rows)
    in_region = np.zeros(geometry.frame_count(), dtype=bool)
    in_region[region.frame_rows] = True
    selector = in_region[rows]
    if (before_rows[~selector] != after_rows[~selector]).any():
        return False
    keep = ~geometry.row_mask(region.rect.row, region.rect.row_end)
    return not ((before_rows[selector] & keep) != (after_rows[selector] & keep)).any()
