"""The serve scheduler: one server (the dynamic area + CPU), many tenants.

Requests arrive on a columnar trace (:mod:`repro.workloads.traces`) and
are dispatched in **epochs** (fixed batching quantum): every request is
released at the end of the epoch it arrived in, which is what lets the
scheduler group same-kernel requests and amortise reconfigurations.
Within an epoch, requests are grouped by kernel and the groups ordered by
the queue policy (FIFO / priority / EDF) applied to group aggregates;
each maximal same-kernel run forms a **segment**, the granularity at
which the admission decision (:mod:`repro.serve.decisions`) and the
region allocator (:mod:`repro.serve.regions`) operate.

:func:`simulate` is vectorized and works in two passes over
epoch-aligned chunks of about :data:`CHUNK_REQUESTS` requests, so its
temporaries are bounded by the chunk and only its outputs span the
trace.  Pass 1 orders each chunk (one ``np.lexsort``), keeps the service
order plus a narrow cost index per request, and sums costs per segment
(``ufunc.reduceat``).  The scalar per-segment driver
(:func:`_run_segments`) then walks the whole segment stream once, so
oracle look-ahead and allocator state are global.  Pass 2 rebuilds the
costs and runs the closed-form queueing recurrence (``finish =
max(maximum.accumulate(dispatch - C_prev), carry) + C``), carrying the
server's last finish time across chunk boundaries.

A per-request Python reference lives in ``tests/oracles/serve.py``; the
tier-1 tests hold :func:`simulate` byte-identical to it, at every chunk
size.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..workloads.traces import validate_trace
from .costtable import CostTable
from .decisions import (
    DECISION_RECONFIG,
    DECISION_RESIDENT,
    DECISION_SOFTWARE,
    decide_segment,
)
from .regions import NEVER, RegionAllocator

QUEUE_POLICIES = ("fifo", "priority", "edf")
RESIDENCY_POLICIES = ("lru", "oracle")

#: Default dispatch quantum: 20 ms — roughly 1.4 reconfigurations long,
#: wide enough to batch same-kernel requests, short against deadlines.
DEFAULT_EPOCH_PS = 20_000_000_000

#: Requests per scheduling chunk.  A chunk ends on an epoch boundary, and
#: one epoch larger than this is one chunk.
CHUNK_REQUESTS = 65_536


class ServeError(ReproError):
    """The serve scheduler was configured or driven incorrectly."""


@dataclass(frozen=True)
class ServeConfig:
    """One scheduler configuration (a queue × residency policy point)."""

    queue: str = "fifo"
    residency: str = "lru"
    epoch_ps: int = DEFAULT_EPOCH_PS
    #: Override the region width in CLB columns (None = the rig's region).
    region_cols: Optional[int] = None
    defrag: bool = True
    #: Oracle residency: amortisation horizon in segments.
    oracle_lookahead: int = 64

    def __post_init__(self) -> None:
        if self.queue not in QUEUE_POLICIES:
            raise ServeError(
                f"unknown queue policy {self.queue!r}; known: {QUEUE_POLICIES}"
            )
        if self.residency not in RESIDENCY_POLICIES:
            raise ServeError(
                f"unknown residency policy {self.residency!r}; "
                f"known: {RESIDENCY_POLICIES}"
            )
        if self.epoch_ps <= 0:
            raise ServeError("epoch_ps must be positive")
        if self.region_cols is not None and self.region_cols <= 0:
            raise ServeError("region_cols must be positive")
        if self.oracle_lookahead < 1:
            raise ServeError("oracle_lookahead must be >= 1")

    def label(self) -> str:
        return f"{self.queue}/{self.residency}"


@dataclass
class ServeOutcome:
    """Raw simulation output (byte-identical to the per-request oracle's).

    Request-indexed arrays are in original trace order; segment arrays
    are in service order.
    """

    config: ServeConfig
    requests: int
    decisions: np.ndarray        # uint8 per request
    finish_ps: np.ndarray        # int64 per request
    latency_ps: np.ndarray       # int64 per request
    service_order: np.ndarray    # int64: trace indices in service order
    busy_ps: int
    span_ps: int
    seg_kernel: np.ndarray       # int64 per segment
    seg_len: np.ndarray          # int64 per segment
    seg_decision: np.ndarray     # uint8 per segment
    seg_overhead_ps: np.ndarray  # int64 per segment (reconfig + defrag)
    alloc: Dict[str, object] = field(default_factory=dict)
    trace: Optional[np.ndarray] = None
    table: Optional[CostTable] = None

    def observables(self) -> Dict[str, object]:
        """Everything the equivalence tests compare, as plain lists."""
        return {
            "decisions": self.decisions.tolist(),
            "finish_ps": self.finish_ps.tolist(),
            "latency_ps": self.latency_ps.tolist(),
            "service_order": self.service_order.tolist(),
            "busy_ps": int(self.busy_ps),
            "span_ps": int(self.span_ps),
            "seg_kernel": self.seg_kernel.tolist(),
            "seg_len": self.seg_len.tolist(),
            "seg_decision": self.seg_decision.tolist(),
            "seg_overhead_ps": self.seg_overhead_ps.tolist(),
            "alloc": dict(self.alloc),
        }


def _run_segments(
    seg_kernel: Sequence[int],
    seg_hw: Sequence[int],
    seg_sw: Sequence[int],
    table: CostTable,
    config: ServeConfig,
) -> Tuple[List[int], List[int], Dict[str, object]]:
    """Drive the admission decision + allocator over the segment stream.

    Scalar by design and shared verbatim with the per-request oracle in
    ``tests/oracles/serve.py``: the segment stream is thousands of entries
    per million requests, so this loop is off the hot path, and sharing it
    makes the decision equivalence structural rather than coincidental.
    """
    cols = config.region_cols if config.region_cols is not None else table.region_cols
    alloc = RegionAllocator(
        cols,
        [int(w) for w in table.widths],
        [int(r) for r in table.reconfig_ps],
        defrag=config.defrag,
    )
    reconfig = [int(r) for r in table.reconfig_ps]
    count = len(seg_kernel)

    positions: Dict[int, List[int]] = {}
    occurrence: List[int] = [0] * count
    pre_hw: Dict[int, List[int]] = {}
    pre_sw: Dict[int, List[int]] = {}
    if config.residency == "oracle":
        for i in range(count):
            lst = positions.setdefault(seg_kernel[i], [])
            occurrence[i] = len(lst)
            lst.append(i)
        for k, pos in positions.items():
            hw_acc = [0]
            sw_acc = [0]
            for i in pos:
                hw_acc.append(hw_acc[-1] + seg_hw[i])
                sw_acc.append(sw_acc[-1] + seg_sw[i])
            pre_hw[k] = hw_acc
            pre_sw[k] = sw_acc

    def next_use_after(current: int):
        """Oracle eviction helper: next segment index using a kernel."""

        def lookup(victim: int) -> int:
            lst = positions.get(victim)
            if not lst:
                return NEVER
            j = bisect.bisect_right(lst, current)
            return lst[j] if j < len(lst) else NEVER

        return lookup

    decisions: List[int] = []
    overhead: List[int] = []
    for i in range(count):
        k = seg_kernel[i]
        s_hw = seg_hw[i]
        s_sw = seg_sw[i]
        if config.residency == "oracle":
            pos = positions[k]
            m = occurrence[i]
            hi = bisect.bisect_right(pos, i + config.oracle_lookahead)
            f_hw = pre_hw[k][hi] - pre_hw[k][m]
            f_sw = pre_sw[k][hi] - pre_sw[k][m]
            next_use = next_use_after(i)
        else:
            f_hw = s_hw
            f_sw = s_sw
            next_use = None
        dec = decide_segment(reconfig[k], s_hw, s_sw, alloc.resident(k), f_hw, f_sw)
        extra = 0
        if dec == DECISION_RECONFIG:
            placed, defrag_ps = alloc.allocate(k, next_use=next_use)
            if placed:
                extra = reconfig[k] + defrag_ps
            else:  # wider than the whole region: software forever
                dec = DECISION_SOFTWARE
        elif dec == DECISION_RESIDENT:
            alloc.touch(k)
        decisions.append(dec)
        overhead.append(extra)
    return decisions, overhead, alloc.stats()


def _validated_inputs(trace: np.ndarray, table: CostTable) -> None:
    validate_trace(trace, kernels=len(table.kernels))
    if int(trace["size"].max()) >= table.size_classes:
        raise ServeError(
            f"trace size classes exceed the cost table's {table.size_classes}"
        )


def simulate(trace: np.ndarray, table: CostTable, config: ServeConfig) -> ServeOutcome:
    """Run the scheduler over a trace, one epoch-aligned chunk at a time."""
    _validated_inputs(trace, table)
    n = int(trace.size)
    arrival = trace["arrival_ps"]
    hw_flat = table.hw_run_ps.ravel()
    sw_flat = table.sw_run_ps.ravel()
    index_dtype = np.int16 if hw_flat.size <= np.iinfo(np.int16).max else np.int32

    # Pass 1: service order, cost index and segment sums, chunk by chunk.
    # Epoch is the most significant sort key, so chunk orders concatenate.
    chunks = list(_chunks(arrival, config.epoch_ps))
    service_order = np.empty(n, dtype=np.int64)
    cost_index = np.empty(n, dtype=index_dtype)
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for start, stop in chunks:
        chunk = trace[start:stop]
        order = _chunk_order(chunk, len(table.kernels), config)
        kern = chunk["kernel"][order]
        cidx = kern.astype(index_dtype) * table.size_classes + chunk["size"][order]
        epoch = chunk["arrival_ps"][order] // config.epoch_ps
        # Segments: maximal same-kernel runs within an epoch.
        seg_starts = np.flatnonzero(
            np.r_[True, (kern[1:] != kern[:-1]) | (epoch[1:] != epoch[:-1])]
        )
        parts.append((
            kern[seg_starts],
            np.diff(seg_starts, append=order.size),
            np.add.reduceat(hw_flat[cidx], seg_starts),
            np.add.reduceat(sw_flat[cidx], seg_starts),
        ))
        order += start
        service_order[start:stop] = order
        cost_index[start:stop] = cidx
    seg_kernel, seg_len, seg_hw, seg_sw = (
        np.concatenate(column).astype(np.int64) for column in zip(*parts)
    )

    # Between the passes: one global decision + allocator walk.
    seg_dec_list, seg_overhead_list, alloc_stats = _run_segments(
        seg_kernel.tolist(), seg_hw.tolist(), seg_sw.tolist(), table, config
    )
    seg_decision = np.asarray(seg_dec_list, dtype=np.uint8)
    seg_overhead = np.asarray(seg_overhead_list, dtype=np.int64)

    # Pass 2: per-request costs and the closed-form queueing recurrence
    # finish_i = max(dispatch_i, finish_{i-1}) + cost_i
    #          = max(maximum.accumulate(dispatch - C_prev), carry) + C
    # (exact, by induction), carrying the last finish into the next chunk.
    finish_ps = np.empty(n, dtype=np.int64)
    decisions = np.empty(n, dtype=np.uint8)
    seg_first = np.cumsum(seg_len) - seg_len
    server_free = 0
    busy = 0
    first_seg = 0
    for start, stop in chunks:
        order = service_order[start:stop]
        last_seg = int(np.searchsorted(seg_first, stop))
        segs = slice(first_seg, last_seg)
        dec = np.repeat(seg_decision[segs], seg_len[segs])
        cidx = cost_index[start:stop]
        total = np.where(dec == DECISION_SOFTWARE, sw_flat[cidx], hw_flat[cidx])
        total[seg_first[segs] - start] += seg_overhead[segs]
        csum = np.cumsum(total)
        dispatch = (arrival[order] // config.epoch_ps + 1) * config.epoch_ps
        finish = np.maximum(np.maximum.accumulate(dispatch - (csum - total)), server_free)
        finish += csum
        finish_ps[order] = finish
        decisions[order] = dec
        busy += int(csum[-1])
        server_free = int(finish[-1])
        first_seg = last_seg

    return ServeOutcome(
        config=config,
        requests=n,
        decisions=decisions,
        finish_ps=finish_ps,
        latency_ps=finish_ps - arrival,
        service_order=service_order,
        busy_ps=busy,
        span_ps=server_free,
        seg_kernel=seg_kernel,
        seg_len=seg_len,
        seg_decision=seg_decision,
        seg_overhead_ps=seg_overhead,
        alloc=alloc_stats,
        trace=trace,
        table=table,
    )


def _chunks(arrival: np.ndarray, epoch_ps: int) -> Iterator[Tuple[int, int]]:
    """``[start, stop)`` request ranges of about :data:`CHUNK_REQUESTS`.

    Arrivals are sorted, so an epoch is a contiguous slice: each chunk
    is cut back to the first request of the epoch its limit falls in, or,
    when one epoch fills the whole chunk, runs on to that epoch's end.
    """
    n = arrival.size
    start = 0
    while start < n:
        stop = min(start + CHUNK_REQUESTS, n)
        if stop < n:
            epoch_start = int(arrival[stop]) // epoch_ps * epoch_ps
            cut = start + int(np.searchsorted(arrival[start:stop], epoch_start))
            if cut > start:
                stop = cut
            else:
                epoch_end = epoch_start + epoch_ps
                while stop < n and arrival[stop] < epoch_end:
                    window = arrival[stop:stop + CHUNK_REQUESTS]
                    stop += int(np.searchsorted(window, epoch_end))
        yield start, stop
        start = stop


def _chunk_order(chunk: np.ndarray, kernels: int, config: ServeConfig) -> np.ndarray:
    """Service order of one chunk of whole epochs, as chunk offsets.

    Same-epoch kernel groups are ordered by the queue policy applied to
    group aggregates, then requests inside a group.  ``np.lexsort`` is
    stable (last key most significant), so ties keep trace order.
    """
    arrival = chunk["arrival_ps"]
    kern = chunk["kernel"]
    epoch = arrival // config.epoch_ps
    gid = epoch * kernels + kern

    # Group aggregates (epoch × kernel) via sort + reduceat.
    g_order = np.argsort(gid, kind="stable")
    sorted_gid = gid[g_order]
    g_starts = np.flatnonzero(np.r_[True, sorted_gid[1:] != sorted_gid[:-1]])
    g_index = np.searchsorted(sorted_gid[g_starts], gid)

    def group(ufunc, column: np.ndarray) -> np.ndarray:
        return ufunc.reduceat(column[g_order], g_starts)[g_index]

    if config.queue == "fifo":
        keys = (arrival, kern, group(np.minimum, arrival))
    elif config.queue == "priority":
        priority = chunk["priority"]
        keys = (
            arrival,
            np.negative(priority, dtype=np.int16),
            kern,
            group(np.minimum, arrival),
            np.negative(group(np.maximum, priority), dtype=np.int16),
        )
    else:  # edf
        deadline = chunk["deadline_ps"]
        keys = (arrival, deadline, kern, group(np.minimum, deadline))
    return np.lexsort(keys + (epoch,))
