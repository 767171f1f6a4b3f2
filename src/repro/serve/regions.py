"""First-class CLB-column allocator for the dynamic region.

The paper's systems expose one reconfigurable region of fixed width (32
CLB columns on the example devices); partial bitstreams are
column-granular, so several narrow kernels can be resident side by side
(the premise of :mod:`repro.core.multiregion`).  This allocator manages
that width for the serve scheduler:

* **placement** — leftmost-fit over the free column extents;
* **eviction**  — LRU by default; with an oracle next-use function the
  victim is the resident kernel used farthest in the future (Belady);
* **defrag**    — when total free space fits the request but no single
  extent does, the allocator *compacts*: every resident kernel is packed
  left and each one that moved is charged its full reconfiguration time
  (a relocated partial bitstream must be rewritten at the new columns);
* **fragmentation accounting** — ``1 - largest_free_extent/free_total``,
  sampled at every allocation event.

The allocator is deliberately scalar Python: it is driven at *segment*
granularity (thousands of events per million requests), never
per-request, and it is shared verbatim by the vectorized scheduler and
its per-request test oracle so both produce identical placements.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import RegionError

#: Sentinel "never used again" distance for oracle eviction.
NEVER = 1 << 62


class RegionAllocator:
    """Column allocator over one dynamic region.

    ``widths``/``reconfig_ps`` are per-kernel-id sequences (indexed by the
    trace's kernel ids).  ``defrag=False`` disables compaction: requests
    that fit only after compaction evict residents instead.
    """

    def __init__(
        self,
        cols: int,
        widths: Sequence[int],
        reconfig_ps: Sequence[int],
        defrag: bool = True,
    ) -> None:
        if cols <= 0:
            raise RegionError(f"region must have positive width, got {cols}")
        if len(widths) != len(reconfig_ps):
            raise RegionError("widths and reconfig_ps must align per kernel")
        if any(w <= 0 for w in widths):
            raise RegionError("every kernel width must be positive")
        self.cols = int(cols)
        self.widths = [int(w) for w in widths]
        self.reconfig_ps = [int(r) for r in reconfig_ps]
        self.defrag = bool(defrag)
        #: kernel id -> (start column, last-touch tick)
        self._entries: Dict[int, Tuple[int, int]] = {}
        self._tick = 0
        self.evictions = 0
        self.defrag_events = 0
        self.defrag_moves = 0
        self.defrag_ps_total = 0
        self.frag_samples: List[float] = []

    # -- queries -------------------------------------------------------------
    def resident(self, kernel: int) -> bool:
        return kernel in self._entries

    def resident_set(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))

    def free_total(self) -> int:
        return self.cols - sum(self.widths[k] for k in self._entries)

    def _extents(self) -> List[Tuple[int, int]]:
        """Free (start, length) extents in ascending column order."""
        placed = sorted(
            (start, self.widths[k]) for k, (start, _) in self._entries.items()
        )
        extents: List[Tuple[int, int]] = []
        cursor = 0
        for start, width in placed:
            if start > cursor:
                extents.append((cursor, start - cursor))
            cursor = start + width
        if cursor < self.cols:
            extents.append((cursor, self.cols - cursor))
        return extents

    def fragmentation(self) -> float:
        """``1 - largest_free_extent / free_total`` (0.0 when nothing is
        free: no request can be refused *because of* fragmentation)."""
        free = self.free_total()
        if free == 0:
            return 0.0
        largest = max((length for _, length in self._extents()), default=0)
        return 1.0 - largest / free

    # -- mutation ------------------------------------------------------------
    def touch(self, kernel: int) -> None:
        """Refresh recency for a resident kernel (LRU bookkeeping)."""
        if kernel not in self._entries:
            raise RegionError(f"kernel {kernel} is not resident")
        start, _ = self._entries[kernel]
        self._tick += 1
        self._entries[kernel] = (start, self._tick)

    def evict(self, kernel: int) -> None:
        if kernel not in self._entries:
            raise RegionError(f"kernel {kernel} is not resident")
        del self._entries[kernel]
        self.evictions += 1

    def _victim(self, next_use: Optional[Callable[[int], int]]) -> int:
        """Deterministic eviction choice among the residents."""
        if next_use is None:
            # LRU: smallest last-touch tick (ticks are unique).
            return min(self._entries, key=lambda k: self._entries[k][1])
        # Belady: farthest next use; ties broken by kernel id for
        # determinism (NEVER marks "not used again in the lookahead").
        return max(self._entries, key=lambda k: (next_use(k), k))

    def _compact(self) -> int:
        """Pack residents left; returns the relocation cost in ps."""
        moved_ps = 0
        cursor = 0
        for kernel, (start, tick) in sorted(
            self._entries.items(), key=lambda item: item[1][0]
        ):
            if start != cursor:
                self._entries[kernel] = (cursor, tick)
                moved_ps += self.reconfig_ps[kernel]
                self.defrag_moves += 1
            cursor += self.widths[kernel]
        self.defrag_events += 1
        self.defrag_ps_total += moved_ps
        return moved_ps

    def allocate(
        self, kernel: int, next_use: Optional[Callable[[int], int]] = None
    ) -> Tuple[bool, int]:
        """Place ``kernel``; returns ``(placed, extra_ps)``.

        ``extra_ps`` is compaction cost only — the caller charges the
        kernel's own reconfiguration separately.  ``(False, 0)`` means the
        kernel can never fit (wider than the whole region); the caller
        must fall back to software.
        """
        width = self.widths[kernel]
        if width > self.cols:
            return False, 0
        if kernel in self._entries:
            self.touch(kernel)
            return True, 0
        extra_ps = 0
        while True:
            extent = next(
                ((s, n) for s, n in self._extents() if n >= width), None
            )
            if extent is not None:
                self._tick += 1
                self._entries[kernel] = (extent[0], self._tick)
                self.frag_samples.append(self.fragmentation())
                return True, extra_ps
            if self.defrag and self.free_total() >= width:
                extra_ps += self._compact()
                continue
            self.evict(self._victim(next_use))

    def stats(self) -> Dict[str, object]:
        samples = self.frag_samples
        return {
            "evictions": int(self.evictions),
            "defrag_events": int(self.defrag_events),
            "defrag_moves": int(self.defrag_moves),
            "defrag_ps": int(self.defrag_ps_total),
            "frag_samples": len(samples),
            "frag_mean": float(sum(samples) / len(samples)) if samples else 0.0,
            "frag_max": float(max(samples)) if samples else 0.0,
            "resident_final": list(self.resident_set()),
        }
