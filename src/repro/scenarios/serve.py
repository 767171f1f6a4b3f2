"""Serve scenarios: the multi-tenant scheduler as registry entries.

Three scenarios cover ROADMAP item 1 ("schedule millions of task
requests against the dynamic area"):

* ``serve_policy_matrix``  — every queue × residency policy combination
  on one trace, with the orderings the policies *must* produce pinned by
  :func:`~repro.scenarios.result.require`;
* ``serve_headline``       — the ≥1M-request Poisson run whose
  percentile latencies / utilization / amortization curve are the
  headline numbers (the perf bench drives the same inputs);
* ``serve_fragmentation``  — a narrow region under bursty load,
  exercising eviction churn and the compaction defrag policy.

Scenario bodies never iterate the trace per-request (LINT009): all
per-request work happens inside :func:`repro.serve.engine.simulate`'s
vectorized scheduler, and post-processing uses NumPy reductions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..serve.costtable import CostTable, calibrate
from ..serve.engine import ServeConfig, simulate
from ..serve.report import ServeReport
from ..workloads.traces import make_trace
from .registry import derive_seed, scenario
from .result import ScenarioResult, require
from .rigs import build_rig64

#: Every queue × residency combination, in report order.
POLICY_COMBOS = (
    ("fifo", "lru"),
    ("priority", "lru"),
    ("edf", "lru"),
    ("fifo", "oracle"),
    ("priority", "oracle"),
    ("edf", "oracle"),
)

_MS = 1_000_000_000


def build_serve_inputs(
    requests: int,
    seed: int,
    arrival: str,
    target_util: float,
    size_classes: int = 3,
) -> Tuple[CostTable, np.ndarray]:
    """Calibrate a cost table and generate the matching request trace.

    Shared by the serve scenarios so each builds its workload the same
    way.  The arrival rate is derived *from the calibrated table* (mean
    hardware cost / target utilization), keeping the service in an
    interesting load regime on any cost model.
    """
    table = calibrate(build_rig64, size_classes=size_classes, seed=seed)
    gap = table.mean_gap_for_utilization(target_util)
    trace = make_trace(
        arrival, requests, gap, derive_seed(seed, f"serve-trace:{arrival}")
    )
    return table, trace


def _report_row(report: ServeReport) -> list:
    return [
        report.queue,
        report.residency,
        round(report.p50_ps / _MS, 3),
        round(report.p99_ps / _MS, 3),
        round(report.p999_ps / _MS, 3),
        round(report.utilization, 4),
        round(report.deadline_miss_rate, 5),
        round(report.software_share, 4),
        report.reconfigs,
        report.evictions,
    ]


_REPORT_HEADERS = [
    "queue",
    "residency",
    "p50 (ms)",
    "p99 (ms)",
    "p999 (ms)",
    "util",
    "miss rate",
    "sw share",
    "swaps",
    "evictions",
]


@scenario(
    "serve_policy_matrix",
    title="Queue x residency policy matrix on one multi-tenant trace",
    tags=("serve", "system64"),
    params={
        "requests": 40_000,
        "seed": 2006,
        "arrival": "poisson",
        "target_util": 0.7,
        "epoch_ms": 20,
        "oracle_lookahead": 64,
    },
    smoke_params={"requests": 4_000},
)
def serve_policy_matrix(
    requests: int,
    seed: int,
    arrival: str,
    target_util: float,
    epoch_ms: int,
    oracle_lookahead: int,
) -> ScenarioResult:
    table, trace = build_serve_inputs(requests, seed, arrival, target_util)
    rows = []
    headline = {}
    reports = {}
    outcomes = {}
    for queue, residency in POLICY_COMBOS:
        config = ServeConfig(
            queue=queue,
            residency=residency,
            epoch_ps=epoch_ms * _MS,
            oracle_lookahead=oracle_lookahead,
        )
        outcome = simulate(trace, table, config)
        report = ServeReport.from_outcome(outcome)
        reports[(queue, residency)] = report
        outcomes[(queue, residency)] = outcome
        rows.append(_report_row(report))
        prefix = f"{queue}_{residency}"
        headline[f"{prefix}_p99_ps"] = report.p99_ps
        headline[f"{prefix}_busy_ps"] = report.busy_ps
        headline[f"{prefix}_miss_rate"] = report.deadline_miss_rate
        headline[f"{prefix}_software_share"] = report.software_share

    # Priority fairness: under the priority queue, the top tenant class
    # must see lower mean latency than the bottom class (NumPy masks, no
    # per-request Python).
    priorities = trace["priority"]
    pr_latency = outcomes[("priority", "lru")].latency_ps
    hi_mean = int(pr_latency[priorities == priorities.max()].mean())
    lo_mean = int(pr_latency[priorities == priorities.min()].mean())
    headline["priority_hi_mean_ps"] = hi_mean
    headline["priority_lo_mean_ps"] = lo_mean

    # The orderings the policies exist to produce, pinned as checks:
    require(
        reports[("edf", "lru")].deadline_miss_rate
        <= reports[("fifo", "lru")].deadline_miss_rate,
        "EDF must not miss more deadlines than FIFO on the same trace",
    )
    require(
        reports[("fifo", "oracle")].busy_ps < reports[("fifo", "lru")].busy_ps,
        "oracle residency must spend less busy time than LRU",
    )
    require(
        reports[("fifo", "oracle")].software_share
        < reports[("fifo", "lru")].software_share,
        "oracle residency must amortise more work onto hardware than LRU",
    )
    require(hi_mean < lo_mean, "priority queue must favour the top tenant class")
    lru_p99s = {reports[(q, "lru")].p99_ps for q, _ in POLICY_COMBOS[:3]}
    require(
        len(lru_p99s) == 3,
        "the three queue policies must produce distinct p99 latencies",
    )
    return ScenarioResult(
        name="serve_policy_matrix",
        title="Serve policy matrix "
        f"({requests} requests, {arrival} arrivals, target util {target_util})",
        headers=_REPORT_HEADERS,
        rows=rows,
        headline=headline,
    )


@scenario(
    "serve_headline",
    title="Headline 1M-request multi-tenant serve run",
    tags=("serve", "system64", "headline"),
    params={
        "requests": 1_000_000,
        "seed": 2006,
        "arrival": "poisson",
        "target_util": 0.7,
        "queue": "fifo",
        "residency": "lru",
    },
    smoke_params={"requests": 20_000},
)
def serve_headline(
    requests: int,
    seed: int,
    arrival: str,
    target_util: float,
    queue: str,
    residency: str,
) -> ScenarioResult:
    table, trace = build_serve_inputs(requests, seed, arrival, target_util)
    config = ServeConfig(queue=queue, residency=residency)
    outcome = simulate(trace, table, config)
    report = ServeReport.from_outcome(outcome)
    require(0.0 < report.utilization <= 1.0, "utilization must be a busy fraction")
    require(
        report.p50_ps <= report.p99_ps <= report.p999_ps,
        "latency percentiles must be monotone",
    )
    require(report.requests == requests, "every request must be served")
    rows = [
        [row["run_length_bin"], row["segments"], row["requests"],
         round(row["amortized_ps_per_request"] / 1e6, 3)]
        for row in report.amortization_curve
    ]
    headline = {
        "requests": report.requests,
        "p50_ps": report.p50_ps,
        "p99_ps": report.p99_ps,
        "p999_ps": report.p999_ps,
        "utilization": report.utilization,
        "throughput_rps": report.throughput_rps,
        "software_share": report.software_share,
        "reconfigs": report.reconfigs,
        "deadline_miss_rate": report.deadline_miss_rate,
    }
    return ScenarioResult(
        name="serve_headline",
        title=f"Serve headline ({requests} {arrival} requests, "
        f"{queue}/{residency})",
        headers=["run-length bin", "segments", "requests", "amortized us/req"],
        rows=rows,
        headline=headline,
    )


@scenario(
    "serve_fragmentation",
    title="Region fragmentation and the compaction defrag policy",
    tags=("serve", "system64"),
    params={
        "requests": 30_000,
        "seed": 2006,
        "arrival": "bursty",
        "target_util": 0.9,
        "region_cols": 17,
        "residency": "oracle",
        "oracle_lookahead": 128,
    },
    smoke_params={"requests": 6_000},
)
def serve_fragmentation(
    requests: int,
    seed: int,
    arrival: str,
    target_util: float,
    region_cols: int,
    residency: str,
    oracle_lookahead: int,
) -> ScenarioResult:
    table, trace = build_serve_inputs(requests, seed, arrival, target_util)
    rows = []
    headline = {}
    reports = {}
    for defrag in (True, False):
        config = ServeConfig(
            queue="fifo",
            residency=residency,
            region_cols=region_cols,
            defrag=defrag,
            oracle_lookahead=oracle_lookahead,
        )
        outcome = simulate(trace, table, config)
        report = ServeReport.from_outcome(outcome)
        reports[defrag] = report
        mode = "compact" if defrag else "evict-only"
        rows.append(
            [
                mode,
                report.evictions,
                report.defrag_events,
                round(report.defrag_ps / _MS, 3),
                round(report.frag_mean, 4),
                round(report.frag_max, 4),
                round(report.p99_ps / _MS, 3),
                round(report.utilization, 4),
            ]
        )
        headline[f"{mode}_evictions"] = report.evictions
        headline[f"{mode}_defrag_events"] = report.defrag_events
        headline[f"{mode}_frag_max"] = report.frag_max
        headline[f"{mode}_busy_ps"] = report.busy_ps
    require(
        reports[True].evictions > 0 and reports[False].evictions > 0,
        "the narrow region must force eviction churn",
    )
    require(
        reports[True].defrag_events >= 1,
        "the compaction policy must trigger at least once",
    )
    require(
        reports[False].defrag_events == 0,
        "defrag=False must never compact",
    )
    require(
        reports[False].frag_max > 0.0,
        "the narrow region must exhibit measurable fragmentation",
    )
    return ScenarioResult(
        name="serve_fragmentation",
        title=f"Region fragmentation at {region_cols} CLB columns "
        f"({requests} {arrival} requests)",
        headers=[
            "mode",
            "evictions",
            "defrag events",
            "defrag (ms)",
            "frag mean",
            "frag max",
            "p99 (ms)",
            "util",
        ],
        rows=rows,
        headline=headline,
    )
