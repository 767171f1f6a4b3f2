"""PPC405 cache model.

16 KB, 2-way set-associative, 32-byte lines (8 words), write-back — for
both instruction and data sides.  The model keeps **tags only**: it decides
hit/miss and dirty evictions; functional data lives in the memory models.

State is two ``(set_count, ways)`` arrays, tags and dirty bits, each row
one set in LRU order: column 0 is the most recently used way and tag -1
marks an empty way.

Two interfaces:

* :meth:`access` — stateful, per-reference.  Used by the CPU's
  ``load_word``/``store_word`` and by the unit tests.
* :meth:`stream` — analytic batch for long sequential sweeps (the common
  pattern in all of the paper's workloads), returning miss/eviction counts
  without a per-line Python loop.  Consecutive lines map to consecutive
  sets, so any window of at most ``set_count * ways`` lines is a handful
  of contiguous set slices, each holding one tag and touching each of its
  sets once.  The residency probe is one compare per slice, and replaying
  the window's references is one vectorised LRU update per slice, applied
  in line order: at most ``ways + 1`` rounds of slice operations, however
  long the sweep.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..engine.stats import StatsGroup
from ..errors import SimulationError


class Cache:
    """Tag-only set-associative cache."""

    #: State the steady-state compiler (:mod:`repro.engine.batch`) never
    #: extrapolates: a phase compiles only once an iteration leaves it
    #: unchanged.
    SETTLED = ("_tags", "_dirty")

    def __init__(
        self,
        name: str = "dcache",
        size_bytes: int = 16 * 1024,
        line_bytes: int = 32,
        ways: int = 2,
    ) -> None:
        if size_bytes % (line_bytes * ways):
            raise SimulationError("cache geometry must divide evenly")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.set_count = size_bytes // (line_bytes * ways)
        # Per set, the ways in LRU order (column 0 = most recent, tag -1 = empty).
        self._tags = np.full((self.set_count, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((self.set_count, ways), dtype=bool)
        self.stats = StatsGroup(name)

    # -- address mapping ---------------------------------------------------
    def _index_tag(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.set_count, line // self.set_count

    def line_base(self, address: int) -> int:
        """Address of the first byte of the line containing ``address``."""
        return (address // self.line_bytes) * self.line_bytes

    def _runs(self, first_line: int, count: int) -> List[Tuple[int, int, int]]:
        """Lines ``[first_line, first_line + count)`` as ``(set start, set
        stop, tag)`` slices in line order; each slice touches a set once."""
        runs = []
        line, end = first_line, first_line + count
        while line < end:
            tag, index = divmod(line, self.set_count)
            stop = min(self.set_count, index + end - line)
            runs.append((index, stop, tag))
            line += stop - index
        return runs

    def _reference(self, start: int, stop: int, tag: int, write: bool) -> None:
        """One reference to ``tag`` in each of sets ``[start, stop)``: a hit
        moves its way to the front, a miss drops the LRU way; either way
        the tag becomes the most recent way, dirty if written."""
        tags = self._tags[start:stop]
        dirty = self._dirty[start:stop]
        match = tags == tag
        if write:
            front_dirty = True
        else:
            front_dirty = (match & dirty).any(axis=1)
        # Way j takes way j-1 unless the hit sits before way j.
        shift = ~np.logical_or.accumulate(match, axis=1)
        for way in range(self.ways - 1, 0, -1):
            np.copyto(tags[:, way], tags[:, way - 1], where=shift[:, way - 1])
            np.copyto(dirty[:, way], dirty[:, way - 1], where=shift[:, way - 1])
        tags[:, 0] = tag
        dirty[:, 0] = front_dirty

    # -- stateful access ---------------------------------------------------------
    def access(self, address: int, write: bool = False) -> Tuple[bool, Optional[int]]:
        """One reference.  Returns ``(hit, dirty_eviction_address)``.

        On a miss the line is allocated (read- and write-allocate, as on
        the 405); if the victim is dirty its base address is returned so
        the CPU can charge a write-back burst.
        """
        index, tag = self._index_tag(address)
        ways = self._tags[index].tolist()
        hit = tag in ways
        evicted: Optional[int] = None
        if hit:
            self.stats.count("hits")
        else:
            self.stats.count("misses")
            if ways[-1] >= 0 and self._dirty[index, -1]:
                evicted = (ways[-1] * self.set_count + index) * self.line_bytes
                self.stats.count("dirty_evictions")
        self._reference(index, index + 1, tag, write)
        return hit, evicted

    def contains(self, address: int) -> bool:
        """Tag probe without touching LRU state."""
        index, tag = self._index_tag(address)
        return tag in self._tags[index].tolist()

    def invalidate(self) -> None:
        """Drop every line (no write-backs — use flush accounting first)."""
        self._tags.fill(-1)
        self._dirty.fill(False)
        self.stats.count("invalidates")

    def dirty_line_count(self) -> int:
        return int(np.count_nonzero(self._dirty))

    # -- analytic batch ------------------------------------------------------------
    def stream(self, start: int, nbytes: int, write: bool = False) -> Tuple[int, int]:
        """Sequential sweep over [start, start+nbytes).

        Returns ``(misses, dirty_evictions)`` and updates tag state to the
        post-sweep footprint (an approximation: the trailing
        ``size_bytes`` of the stream resident, which is exact for
        sweeps longer than the cache and for cold caches).  Residency is
        probed over the sweep's first ``size_bytes``; the state afterwards
        is that of :meth:`access` over its last ``size_bytes``, with the
        hit/miss counters charged for the sweep's misses only.
        """
        if nbytes <= 0:
            return 0, 0
        first_line = start // self.line_bytes
        last_line = (start + nbytes - 1) // self.line_bytes
        line_count = last_line - first_line + 1
        window = min(line_count, self.set_count * self.ways)

        # Count how many of the first ``window`` lines are already resident.
        resident = sum(
            int(np.count_nonzero(self._tags[lo:hi] == tag))
            for lo, hi, tag in self._runs(first_line, window)
        )
        misses = line_count - resident

        # Evictions: a long write sweep through a write-back cache pushes
        # out whatever dirty lines were resident, then starts evicting its
        # own dirty lines once the sweep exceeds the cache capacity.
        dirty_before = self.dirty_line_count() if misses else 0
        own_dirty_evicted = line_count - window if write else 0
        evictions = min(dirty_before, misses) + own_dirty_evicted

        # Update state to the post-sweep footprint: the last ``window``
        # lines referenced in order.  That is bookkeeping, not extra
        # references, so only the sweep's own misses are counted.
        for lo, hi, tag in self._runs(last_line - window + 1, window):
            self._reference(lo, hi, tag, write)
        for name in ("hits", "misses", "dirty_evictions"):
            self.stats.count(name, 0)
        self.stats.count("misses", misses)
        self.stats.count("dirty_evictions", evictions)
        self.stats.count("stream_bytes", nbytes)
        return misses, evictions
