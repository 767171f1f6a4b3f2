"""Per-request reference for :func:`repro.serve.engine.simulate`.

The shipped scheduler orders, segments and times a trace with array
operations, one epoch-aligned chunk at a time.  :func:`simulate` does the
same work as a plain Python loop over requests: group aggregates in a
dict, the service order from ``sorted()`` over explicit key tuples, and
the one-server recurrence ``finish = max(dispatch, server_free) + cost``
request by request.  It shares only the per-segment decision and
allocator walk (:func:`repro.serve.engine._run_segments`) with the
shipped code, so decisions and placements come from the same driver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve.costtable import CostTable
from repro.serve.decisions import DECISION_SOFTWARE
from repro.serve.engine import ServeConfig, ServeOutcome, _run_segments, _validated_inputs


def simulate(trace: np.ndarray, table: CostTable, config: ServeConfig) -> ServeOutcome:
    """``repro.serve.engine.simulate(trace, table, config)``, one request at a time."""
    _validated_inputs(trace, table)
    n = int(trace.size)
    arrival = [int(v) for v in trace["arrival_ps"]]
    kern = [int(v) for v in trace["kernel"]]
    size = [int(v) for v in trace["size"]]
    deadline = [int(v) for v in trace["deadline_ps"]]
    priority = [int(v) for v in trace["priority"]]
    hw_tab = [[int(v) for v in row] for row in table.hw_run_ps]
    sw_tab = [[int(v) for v in row] for row in table.sw_run_ps]

    epoch = [a // config.epoch_ps + 1 for a in arrival]

    # Group aggregates (epoch × kernel): [min arrival, max prio, min deadline].
    group: Dict[Tuple[int, int], List[int]] = {}
    for i in range(n):
        entry = group.get((epoch[i], kern[i]))
        if entry is None:
            group[(epoch[i], kern[i])] = [arrival[i], priority[i], deadline[i]]
        else:
            entry[0] = min(entry[0], arrival[i])
            entry[1] = max(entry[1], priority[i])
            entry[2] = min(entry[2], deadline[i])

    def sort_key(i: int) -> Tuple[int, int, int, int, int, int, int]:
        agg = group[(epoch[i], kern[i])]
        if config.queue == "fifo":
            return (epoch[i], agg[0], 0, kern[i], arrival[i], 0, i)
        if config.queue == "priority":
            return (epoch[i], -agg[1], agg[0], kern[i], -priority[i], arrival[i], i)
        return (epoch[i], agg[2], 0, kern[i], deadline[i], arrival[i], i)

    order = sorted(range(n), key=sort_key)

    # Segments in service order.
    seg_kernel: List[int] = []
    seg_hw: List[int] = []
    seg_sw: List[int] = []
    seg_len: List[int] = []
    seg_of_pos: List[int] = []
    previous: Optional[Tuple[int, int]] = None
    for i in order:
        key = (epoch[i], kern[i])
        if key != previous:
            seg_kernel.append(kern[i])
            seg_hw.append(0)
            seg_sw.append(0)
            seg_len.append(0)
            previous = key
        seg = len(seg_kernel) - 1
        seg_of_pos.append(seg)
        seg_hw[seg] += hw_tab[kern[i]][size[i]]
        seg_sw[seg] += sw_tab[kern[i]][size[i]]
        seg_len[seg] += 1

    seg_decision, seg_overhead, alloc_stats = _run_segments(
        seg_kernel, seg_hw, seg_sw, table, config
    )

    # Per-request timeline: one server, explicit recurrence.
    finish = [0] * n
    decisions = [0] * n
    busy = 0
    server_free = 0
    previous_seg = -1
    for pos in range(n):
        i = order[pos]
        seg = seg_of_pos[pos]
        dec = seg_decision[seg]
        cost = (
            sw_tab[kern[i]][size[i]]
            if dec == DECISION_SOFTWARE
            else hw_tab[kern[i]][size[i]]
        )
        if seg != previous_seg:
            cost += seg_overhead[seg]
            previous_seg = seg
        dispatch = epoch[i] * config.epoch_ps
        start = dispatch if dispatch > server_free else server_free
        server_free = start + cost
        finish[i] = server_free
        decisions[i] = dec
        busy += cost

    latency = [finish[i] - arrival[i] for i in range(n)]
    return ServeOutcome(
        config=config,
        requests=n,
        decisions=np.asarray(decisions, dtype=np.uint8),
        finish_ps=np.asarray(finish, dtype=np.int64),
        latency_ps=np.asarray(latency, dtype=np.int64),
        service_order=np.asarray(order, dtype=np.int64),
        busy_ps=busy,
        span_ps=server_free,
        seg_kernel=np.asarray(seg_kernel, dtype=np.int64),
        seg_len=np.asarray(seg_len, dtype=np.int64),
        seg_decision=np.asarray(seg_decision, dtype=np.uint8),
        seg_overhead_ps=np.asarray(seg_overhead, dtype=np.int64),
        alloc=alloc_stats,
        trace=trace,
        table=table,
    )
