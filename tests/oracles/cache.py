"""Line-at-a-time reference for :meth:`repro.cpu.cache.Cache.stream`.

The shipped sweep probes residency and replays the post-sweep footprint
with a few slice operations per window.  :func:`stream` does the same one
line at a time through the cache's public per-reference API —
:meth:`~repro.cpu.cache.Cache.contains`,
:meth:`~repro.cpu.cache.Cache.access` and
:meth:`~repro.cpu.cache.Cache.dirty_line_count` — shielding the hit,
miss and eviction counters around the replayed accesses.
"""

from __future__ import annotations

from typing import Tuple

from repro.cpu.cache import Cache


def stream(cache: Cache, start: int, nbytes: int, write: bool = False) -> Tuple[int, int]:
    """``cache.stream(start, nbytes, write)``, one line at a time."""
    if nbytes <= 0:
        return 0, 0
    first_line = start // cache.line_bytes
    last_line = (start + nbytes - 1) // cache.line_bytes
    line_count = last_line - first_line + 1
    capacity_lines = cache.set_count * cache.ways

    # Only the first ``capacity_lines`` lines are probed.
    resident = 0
    probe_lines = min(line_count, capacity_lines)
    for line_number in range(first_line, first_line + probe_lines):
        if cache.contains(line_number * cache.line_bytes):
            resident += 1
    misses = line_count - resident

    dirty_before = cache.dirty_line_count() if misses else 0
    own_dirty_evicted = 0
    if write and line_count > capacity_lines:
        own_dirty_evicted = line_count - capacity_lines
    evictions = min(dirty_before, misses) + own_dirty_evicted

    # Replay the last ``capacity_lines`` lines with the statistics shielded.
    saved = {
        name: cache.stats.counter(name).value for name in ("hits", "misses", "dirty_evictions")
    }
    keep_lines = min(line_count, capacity_lines)
    for line_number in range(last_line - keep_lines + 1, last_line + 1):
        cache.access(line_number * cache.line_bytes, write=write)
    for name, value in saved.items():
        cache.stats.counter(name).value = value
    cache.stats.count("misses", misses)
    cache.stats.count("dirty_evictions", evictions)
    cache.stats.count("stream_bytes", nbytes)
    return misses, evictions
