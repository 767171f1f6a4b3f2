"""Multi-tenant reconfiguration service simulator (``repro serve``).

The paper's core trade-off — keep a kernel resident in the dynamic area,
pay a partial reconfiguration, or fall back to software — only becomes
interesting under sustained multi-tenant load.  This package simulates a
request service over the measured cost model:

* :mod:`repro.serve.costtable`  — calibrates per-kernel reconfiguration /
  hardware / software costs on a live rig into dense arrays;
* :mod:`repro.serve.regions`    — CLB-column region allocator with
  fragmentation accounting and a compaction defrag policy;
* :mod:`repro.serve.decisions`  — the pure admission decision kernel
  (break-even math over the cost tables);
* :mod:`repro.serve.engine`     — the scheduler, vectorized over
  epoch-aligned chunks of requests (its per-request reference lives in
  ``tests/oracles/serve.py``);
* :mod:`repro.serve.report`     — :class:`~repro.serve.report.ServeReport`
  percentile latency / utilization / amortization summaries.

Traces come from :mod:`repro.workloads.traces`; see ``docs/SERVE.md``.
"""

from .costtable import CostTable, calibrate
from .decisions import (
    DECISION_LABELS,
    DECISION_RECONFIG,
    DECISION_RESIDENT,
    DECISION_SOFTWARE,
    decide_segment,
)
from .engine import (
    QUEUE_POLICIES,
    RESIDENCY_POLICIES,
    ServeConfig,
    ServeError,
    ServeOutcome,
    simulate,
)
from .regions import RegionAllocator
from .report import ServeReport

__all__ = [
    "CostTable",
    "DECISION_LABELS",
    "DECISION_RECONFIG",
    "DECISION_RESIDENT",
    "DECISION_SOFTWARE",
    "QUEUE_POLICIES",
    "RESIDENCY_POLICIES",
    "RegionAllocator",
    "ServeConfig",
    "ServeError",
    "ServeOutcome",
    "ServeReport",
    "calibrate",
    "decide_segment",
    "simulate",
]
