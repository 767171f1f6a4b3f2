"""Candidate evaluation: platform points -> objective vectors, cached.

Every candidate is scored by three probe scenarios (:mod:`..scenarios.dse`),
each seeing only the axes that physically reach its datapath:

========================  =====================================================
``dse_throughput``        bus_mhz, fifo_depth, burst_beats
``dse_reconfig``          bus_mhz, bridge_cycles, region geometry, verify_samples
``dse_recovery``          region geometry, scrub_period_us, verify_samples
========================  =====================================================

The projection is not cosmetic: two candidates differing only in, say,
scrub period share the *identical* throughput and reconfiguration jobs,
so the batch deduplicates them before running and the content-addressed
result cache collapses them across runs.  A generation of an evolutionary
search that revisits known territory costs cache lookups, not simulation.

All evaluation goes through :func:`repro.sweep.run_batch` — the same
process-pool + cache + rig-memo machinery as ``repro sweep`` — so search
orchestration never touches simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.pareto import MAXIMIZE, MINIMIZE, Objective
from ..errors import CheckError, InvariantError
from ..scenarios import get_scenario
from ..sweep import run_batch
from .factorial import format_point
from .space import PlatformSpace

#: Which axes each probe scenario sees (everything else is projected out
#: for cache sharing; the probes default the rest to the paper baseline).
PROJECTIONS: Dict[str, Tuple[str, ...]] = {
    "dse_throughput": ("bus_mhz", "fifo_depth", "burst_beats"),
    "dse_reconfig": ("bus_mhz", "bridge_cycles", "region_cols", "region_rows", "verify_samples"),
    "dse_recovery": ("region_cols", "region_rows", "scrub_period_us", "verify_samples"),
}

#: The three objectives, in report order, each sourced from one probe.
OBJECTIVES: Tuple[Objective, ...] = (
    Objective("throughput_mwps", MAXIMIZE, "Mwords/s"),
    Objective("overhead_ps", MINIMIZE, "ps"),
    Objective("recovery_rate", MAXIMIZE),
)

#: objective name -> the probe scenario whose headline carries it.
OBJECTIVE_SOURCE: Dict[str, str] = {
    "throughput_mwps": "dse_throughput",
    "overhead_ps": "dse_reconfig",
    "recovery_rate": "dse_recovery",
}


@dataclass
class Evaluation:
    """One scored candidate: the point and its objective values."""

    point: Dict[str, int]
    objectives: Dict[str, float]

    def vector(self) -> List[float]:
        """Objective values in :data:`OBJECTIVES` order."""
        return [float(self.objectives[obj.name]) for obj in OBJECTIVES]

    def to_dict(self) -> Dict[str, object]:
        return {"point": dict(self.point), "objectives": dict(self.objectives)}


class Evaluator:
    """Batch-evaluates platform points, memoizing across calls.

    One instance lives for a whole exploration (factorial pass plus every
    search generation): points already scored return their stored
    :class:`Evaluation`; fresh points fan out through one
    :func:`run_batch` call with per-scenario job deduplication.  The
    ``evaluations`` list preserves first-seen order, which is what makes
    reports byte-stable across reruns.
    """

    def __init__(
        self,
        space: PlatformSpace,
        *,
        jobs: int = 1,
        cache=None,
        refresh: bool = False,
        smoke: bool = False,
        progress: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.space = space
        self.jobs = jobs
        self.cache = cache
        self.refresh = refresh
        self.smoke = smoke
        self.progress = progress
        self.evaluations: List[Evaluation] = []
        self._by_point: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self.host_seconds = 0.0
        self.compute_seconds = 0.0
        self.jobs_run = 0
        self.jobs_deduped = 0
        # The ResultCache's telemetry is cumulative, so the stats of the
        # most recent batch cover the whole exploration.
        self._last_cache_stats: Dict[str, int] = {}

    # -- public -------------------------------------------------------------
    def evaluate(self, points: Sequence[Mapping[str, int]]) -> List[Evaluation]:
        """Score ``points`` (legal, deduplicated by the caller or not)."""
        fresh: List[Dict[str, int]] = []
        for point in points:
            key = self.space.canonical(point)
            if key not in self._by_point and all(
                self.space.canonical(p) != key for p in fresh
            ):
                reason = self.space.violation(point)
                if reason is not None:
                    raise InvariantError(
                        f"refusing to evaluate illegal point {format_point(point)}: {reason}"
                    )
                fresh.append({name: int(value) for name, value in key})
        if fresh:
            self._run_batch(fresh)
        return [self.evaluations[self._by_point[self.space.canonical(p)]] for p in points]

    def index_of(self, point: Mapping[str, int]) -> int:
        """Position of an evaluated point in :attr:`evaluations`."""
        return self._by_point[self.space.canonical(point)]

    @property
    def cache_stats(self) -> Dict[str, int]:
        return dict(self._last_cache_stats)

    # -- internals -----------------------------------------------------------
    def _run_batch(self, fresh: Sequence[Dict[str, int]]) -> None:
        # Job dedup: distinct (scenario, params) only.  ``needs`` maps each
        # point to its three job indices for objective extraction below.
        items: List[Tuple[object, Dict[str, object]]] = []
        labels: List[str] = []
        job_index: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], int] = {}
        needs: List[Dict[str, int]] = []
        for point in fresh:
            per_point: Dict[str, int] = {}
            for scenario_name, axes in PROJECTIONS.items():
                entry = get_scenario(scenario_name)
                overrides = {axis: point[axis] for axis in axes if axis in point}
                params = entry.resolve_params(overrides, smoke=self.smoke)
                key = (scenario_name, tuple(sorted(params.items())))
                if key not in job_index:
                    job_index[key] = len(items)
                    items.append((entry, params))
                    labels.append(f"{scenario_name}#{len(items)}")
                else:
                    self.jobs_deduped += 1
                per_point[scenario_name] = job_index[key]
            needs.append(per_point)

        outcome = run_batch(
            items,
            jobs=self.jobs,
            cache=self.cache,
            refresh=self.refresh,
            smoke=self.smoke,
            progress=self.progress,
            labels=labels,
        )
        self.host_seconds += outcome.host_seconds
        self.compute_seconds += sum(o.compute_seconds for o in outcome.outcomes)
        self.jobs_run += len(items)
        self._last_cache_stats = outcome.cache_stats
        if not outcome.ok:
            details = "; ".join(
                f"{o.label}: {o.error}" for o in outcome.failures
            )
            raise CheckError(f"candidate evaluation failed: {details}")

        for point, per_point in zip(fresh, needs):
            objectives: Dict[str, float] = {}
            for objective in OBJECTIVES:
                source = OBJECTIVE_SOURCE[objective.name]
                result = outcome.outcomes[per_point[source]].result
                if objective.name not in result.headline:
                    raise CheckError(
                        f"{source} headline is missing {objective.name!r}"
                    )
                objectives[objective.name] = float(result.headline[objective.name])
            self._by_point[self.space.canonical(point)] = len(self.evaluations)
            self.evaluations.append(Evaluation(point=dict(point), objectives=objectives))
