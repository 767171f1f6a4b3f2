"""Service-level summary of one serve simulation.

:class:`ServeReport` reduces a :class:`~repro.serve.engine.ServeOutcome`
to the numbers the paper-style evaluation needs: percentile latency
(p50/p99/p999 by deterministic integer indexing), server utilization,
decision mix, deadline misses, allocator health, and the
reconfiguration-amortization curve (per-swap cost spread over the run
length it amortises across, bucketed by power-of-two run length).

Everything is computed from the outcome's arrays with shared code, so a
report from the scheduler equals a report from its per-request test
oracle exactly (the equivalence tests compare ``to_dict()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..analysis.stats import QUANTILES, quantile_ps
from .decisions import DECISION_RECONFIG, DECISION_RESIDENT, DECISION_SOFTWARE
from .engine import ServeOutcome

__all__ = ["QUANTILES", "ServeReport", "amortization_curve", "quantile_ps"]


@dataclass
class ServeReport:
    """Service-level metrics of one (trace, config) simulation."""

    queue: str
    residency: str
    requests: int
    span_ps: int
    busy_ps: int
    utilization: float
    p50_ps: int
    p99_ps: int
    p999_ps: int
    mean_latency_ps: int
    max_latency_ps: int
    deadline_miss_rate: float
    decision_counts: Dict[str, int]
    software_share: float
    reconfigs: int
    reconfig_ps: int
    defrag_events: int
    defrag_ps: int
    evictions: int
    frag_mean: float
    frag_max: float
    amortization_curve: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def from_outcome(cls, outcome: ServeOutcome) -> "ServeReport":
        latency = np.sort(outcome.latency_ps)
        requests = int(outcome.requests)
        decisions = outcome.decisions
        counts = {
            "resident": int(np.count_nonzero(decisions == DECISION_RESIDENT)),
            "reconfig": int(np.count_nonzero(decisions == DECISION_RECONFIG)),
            "software": int(np.count_nonzero(decisions == DECISION_SOFTWARE)),
        }
        if outcome.trace is not None:
            misses = int(
                np.count_nonzero(outcome.finish_ps > outcome.trace["deadline_ps"])
            )
        else:
            misses = 0
        alloc = outcome.alloc
        defrag_ps = int(alloc.get("defrag_ps", 0))
        swap_mask = outcome.seg_decision == DECISION_RECONFIG
        swaps = int(np.count_nonzero(swap_mask))
        overhead_total = int(outcome.seg_overhead_ps.sum())
        # A windowed replay (e.g. a duration that precedes the first
        # arrival) legitimately admits zero requests; every per-request
        # statistic is then defined as zero rather than a division crash.
        return cls(
            queue=outcome.config.queue,
            residency=outcome.config.residency,
            requests=requests,
            span_ps=int(outcome.span_ps),
            busy_ps=int(outcome.busy_ps),
            utilization=float(outcome.busy_ps / outcome.span_ps)
            if outcome.span_ps
            else 0.0,
            p50_ps=quantile_ps(latency, 0.5) if requests else 0,
            p99_ps=quantile_ps(latency, 0.99) if requests else 0,
            p999_ps=quantile_ps(latency, 0.999) if requests else 0,
            mean_latency_ps=int(outcome.latency_ps.sum()) // requests if requests else 0,
            max_latency_ps=int(latency[-1]) if requests else 0,
            deadline_miss_rate=misses / requests if requests else 0.0,
            decision_counts=counts,
            software_share=counts["software"] / requests if requests else 0.0,
            reconfigs=swaps,
            reconfig_ps=overhead_total - defrag_ps,
            defrag_events=int(alloc.get("defrag_events", 0)),
            defrag_ps=defrag_ps,
            evictions=int(alloc.get("evictions", 0)),
            frag_mean=float(alloc.get("frag_mean", 0.0)),
            frag_max=float(alloc.get("frag_max", 0.0)),
            amortization_curve=amortization_curve(outcome),
        )

    @property
    def throughput_rps(self) -> float:
        """Requests per simulated second."""
        return self.requests / (self.span_ps / 1e12) if self.span_ps else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "queue": self.queue,
            "residency": self.residency,
            "requests": self.requests,
            "span_ps": self.span_ps,
            "busy_ps": self.busy_ps,
            "utilization": self.utilization,
            "throughput_rps": self.throughput_rps,
            "p50_ps": self.p50_ps,
            "p99_ps": self.p99_ps,
            "p999_ps": self.p999_ps,
            "mean_latency_ps": self.mean_latency_ps,
            "max_latency_ps": self.max_latency_ps,
            "deadline_miss_rate": self.deadline_miss_rate,
            "decisions": dict(self.decision_counts),
            "software_share": self.software_share,
            "reconfigs": self.reconfigs,
            "reconfig_ps": self.reconfig_ps,
            "defrag_events": self.defrag_events,
            "defrag_ps": self.defrag_ps,
            "evictions": self.evictions,
            "frag_mean": self.frag_mean,
            "frag_max": self.frag_max,
            "amortization_curve": [dict(row) for row in self.amortization_curve],
        }


def amortization_curve(outcome: ServeOutcome) -> List[Dict[str, object]]:
    """Reconfiguration cost per request, bucketed by segment run length.

    For every segment that paid a swap, its overhead (reconfig + any
    compaction) amortises over the segment's requests; buckets are
    power-of-two run lengths.  This is the paper's break-even story made
    empirical: long buckets should show per-request overhead far below
    the software/hardware gain, short buckets should be rare.
    """
    swap_mask = outcome.seg_decision == DECISION_RECONFIG
    lengths = outcome.seg_len[swap_mask]
    overheads = outcome.seg_overhead_ps[swap_mask]
    if lengths.size == 0:
        return []
    bins = np.floor(np.log2(lengths)).astype(np.int64)
    curve: List[Dict[str, object]] = []
    for b in np.unique(bins):
        mask = bins == b
        bucket_requests = int(lengths[mask].sum())
        bucket_overhead = int(overheads[mask].sum())
        curve.append(
            {
                "run_length_bin": int(2**b),
                "segments": int(np.count_nonzero(mask)),
                "requests": bucket_requests,
                "amortized_ps_per_request": bucket_overhead / bucket_requests,
            }
        )
    return curve
