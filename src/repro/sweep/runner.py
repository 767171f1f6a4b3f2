"""Process-pool orchestrator for the scenario sweep.

Fans registered scenarios out over a ``ProcessPoolExecutor`` and merges
their results into one :class:`SweepOutcome`:

* **Determinism** — scenarios are pure and carry their own seeds, so
  results are independent of worker assignment, completion order and
  job count; the parallel path is asserted byte-identical to the serial
  one by ``tests/test_sweep_runner.py``.
* **Caching** — each scenario consults the content-addressed
  :class:`~repro.sweep.cache.ResultCache` first; hits skip simulation
  entirely and keep the cold run's host cost for the report.
* **Robustness** — a scenario failure (``CheckError`` et al.) marks that
  scenario failed without sinking the sweep; a *worker crash* (broken
  pool) triggers a serial in-process retry of everything still pending.
* **Aggregation** — per-scenario ``StatsGroup`` snapshots are merged
  across processes via :meth:`StatsGroup.merge`.

Only the orchestrator reads the host clock (to report wall-clock cost);
simulated timing never depends on it — see ``docs/MODELING.md``.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..engine.stats import StatsGroup
from ..scenarios.registry import Scenario, derive_seed, get_scenario
from ..scenarios.result import ScenarioResult


def _now() -> float:
    """Host wall-clock, for telemetry only (never simulated timing)."""
    return time.perf_counter()  # repro: noqa LINT001


def apply_seed_base(name: str, params: Dict[str, object], seed_base: Optional[int]) -> Dict[str, object]:
    """Derive deterministic per-scenario seeds from a sweep-wide base.

    Every parameter named ``seed`` or ``*_seed`` is replaced by
    ``derive_seed(seed_base, "<scenario>:<param>")`` — stable across
    processes and runs, unique per (scenario, parameter).  With
    ``seed_base=None`` (the default) the paper's seeds are kept.
    """
    if seed_base is None:
        return params
    derived = dict(params)
    for key in params:
        if key == "seed" or key.endswith("_seed"):
            derived[key] = derive_seed(seed_base, f"{name}:{key}")
    return derived


def _execute_scenario(name: str, params: Mapping[str, object]) -> Dict[str, object]:
    """Worker entry point: run one scenario, returning a transport dict.

    Must stay module-level (picklable) and must not raise — errors are
    returned as data so exotic exception types never poison the pool.
    """
    started = _now()
    try:
        result = get_scenario(name).run(params)
    except BaseException as err:  # repro: noqa LINT007 (worker boundary: error returned as data)
        return {
            "name": name,
            "error": f"{type(err).__name__}: {err}",
            "traceback": traceback.format_exc(),
            "host_seconds": _now() - started,
        }
    return {
        "name": name,
        "result": result.to_dict(),
        "host_seconds": _now() - started,
    }


@dataclass
class ScenarioOutcome:
    """What happened to one scenario inside a sweep."""

    name: str
    tags: Tuple[str, ...]
    status: str  # "ok" | "failed"
    cache: str  # "hit" | "miss" | "refresh" | "off"
    #: Host seconds this run actually spent on the scenario (≈0 for hits).
    host_seconds: float
    #: Host seconds the simulation cost when it was (re)computed.  A
    #: *failed* run produced no result, so it contributes 0.0 here — its
    #: time is reported separately as :attr:`failed_seconds`.
    compute_seconds: float
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    #: True when a broken pool forced an in-process serial retry.
    retried_serially: bool = False
    #: Host seconds burned by a failed run (0.0 for successful runs).
    failed_seconds: float = 0.0
    #: Batch-evaluation label; distinguishes multiple parameterisations of
    #: the same scenario inside one :func:`run_batch` (defaults to ``name``).
    job: Optional[str] = None

    @property
    def label(self) -> str:
        return self.job if self.job is not None else self.name


@dataclass
class SweepOutcome:
    """Merged outcome of one orchestrated sweep."""

    outcomes: List[ScenarioOutcome]
    jobs: int
    host_seconds: float
    smoke: bool = False
    seed_base: Optional[int] = None
    cache_enabled: bool = True
    cache_stats: Dict[str, int] = field(default_factory=dict)
    pool_broken: bool = False

    @property
    def ok(self) -> bool:
        return all(o.status == "ok" for o in self.outcomes)

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.status != "ok"]

    def merged_stats(self) -> Dict[str, StatsGroup]:
        """Cross-process aggregate of every scenario's stats snapshots."""
        merged: Dict[str, StatsGroup] = {}
        for outcome in self.outcomes:
            if outcome.result is None:
                continue
            for group_name, live in outcome.result.merged_stats().items():
                if group_name in merged:
                    merged[group_name].merge(live)
                else:
                    merged[group_name] = live
        return merged


def _resolve(
    scenarios: Sequence[Scenario],
    smoke: bool,
    seed_base: Optional[int],
    overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> List[Tuple[Scenario, Dict[str, object]]]:
    jobs = []
    for entry in scenarios:
        per_scenario = overrides.get(entry.name) if overrides else None
        params = entry.resolve_params(per_scenario, smoke=smoke)
        jobs.append((entry, apply_seed_base(entry.name, params, seed_base)))
    return jobs


def run_batch(
    items: Sequence[Tuple[Scenario, Mapping[str, object]]],
    *,
    jobs: int = 1,
    cache=None,
    refresh: bool = False,
    smoke: bool = False,
    seed_base: Optional[int] = None,
    progress: Optional[Callable[[ScenarioOutcome], None]] = None,
    labels: Optional[Sequence[str]] = None,
) -> SweepOutcome:
    """Run explicit ``(scenario, params)`` pairs with up to ``jobs`` workers.

    The generic batch-evaluation entry point underneath :func:`run_sweep`:
    unlike the sweep (which runs each registered scenario once, keyed by
    name), a batch may evaluate the *same* scenario under many different
    parameterisations — the shape the design-space explorer
    (:mod:`repro.dse`) fans out, one evaluation per candidate platform.
    Each pair consults the content-addressed result cache independently,
    so revisited candidates (later search generations, reruns) cost a
    cache lookup instead of a simulation.  ``labels`` (parallel to
    ``items``) names each job in outcomes/progress; defaults to the
    scenario name.
    """
    started = _now()
    if labels is None:
        labels = [entry.name for entry, _ in items]
    if len(labels) != len(items):
        raise ValueError(f"{len(labels)} label(s) for {len(items)} item(s)")
    work = [
        (index, label, entry, dict(params))
        for index, (label, (entry, params)) in enumerate(zip(labels, items))
    ]
    outcomes: Dict[int, ScenarioOutcome] = {}
    pool_broken = False

    # -- phase 1: cache lookups -------------------------------------------
    pending: List[Tuple[int, str, Scenario, Dict[str, object]]] = []
    for index, label, entry, params in work:
        if cache is not None and not refresh:
            t0 = _now()
            found = cache.load(entry, params)
            if found is not None:
                result, cold_seconds = found
                outcome = ScenarioOutcome(
                    name=entry.name,
                    tags=entry.tags,
                    status="ok",
                    cache="hit",
                    host_seconds=_now() - t0,
                    compute_seconds=cold_seconds,
                    result=result,
                    job=label,
                )
                outcomes[index] = outcome
                if progress:
                    progress(outcome)
                continue
        pending.append((index, label, entry, params))

    # -- phase 2: execute misses ------------------------------------------
    def finish(index: int, label: str, entry: Scenario, params,
               payload: Dict[str, object], *, retried: bool) -> None:
        cache_state = "off" if cache is None else ("refresh" if refresh else "miss")
        if "error" in payload:
            # A failed run produced nothing, so it must not count toward
            # "what this batch would cost computed cold" — its host time
            # is accounted separately in ``failed_seconds``.
            outcome = ScenarioOutcome(
                name=entry.name,
                tags=entry.tags,
                status="failed",
                cache=cache_state,
                host_seconds=float(payload.get("host_seconds", 0.0)),
                compute_seconds=0.0,
                error=str(payload["error"]),
                retried_serially=retried,
                failed_seconds=float(payload.get("host_seconds", 0.0)),
                job=label,
            )
        else:
            result = ScenarioResult.from_dict(payload["result"])
            seconds = float(payload["host_seconds"])
            if cache is not None:
                cache.store(entry, params, result, seconds)
            outcome = ScenarioOutcome(
                name=entry.name,
                tags=entry.tags,
                status="ok",
                cache=cache_state,
                host_seconds=seconds,
                compute_seconds=seconds,
                result=result,
                retried_serially=retried,
                job=label,
            )
        outcomes[index] = outcome
        if progress:
            progress(outcome)

    crashed: List[Tuple[int, str, Scenario, Dict[str, object]]] = []
    if pending and jobs > 1:
        # Fork keeps dynamically registered scenarios (tests) visible to
        # workers; fall back to the platform default elsewhere.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = None
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            futures = {
                pool.submit(_execute_scenario, entry.name, params): (index, label, entry, params)
                for index, label, entry, params in pending
            }
            for future, (index, label, entry, params) in futures.items():
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    crashed.append((index, label, entry, params))
                    continue
                finish(index, label, entry, params, payload, retried=False)
    else:
        for index, label, entry, params in pending:
            finish(index, label, entry, params,
                   _execute_scenario(entry.name, params), retried=False)

    # -- phase 3: serial retry after a worker crash ------------------------
    for index, label, entry, params in crashed:
        finish(index, label, entry, params,
               _execute_scenario(entry.name, params), retried=True)

    ordered = [outcomes[index] for index, _, _, _ in work]
    return SweepOutcome(
        outcomes=ordered,
        jobs=jobs,
        host_seconds=_now() - started,
        smoke=smoke,
        seed_base=seed_base,
        cache_enabled=cache is not None,
        cache_stats=cache.telemetry.as_dict() if cache is not None else {},
        pool_broken=pool_broken,
    )


def run_sweep(
    scenarios: Sequence[Scenario],
    *,
    jobs: int = 1,
    cache=None,
    refresh: bool = False,
    smoke: bool = False,
    seed_base: Optional[int] = None,
    progress: Optional[Callable[[ScenarioOutcome], None]] = None,
    overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> SweepOutcome:
    """Run ``scenarios`` with up to ``jobs`` worker processes.

    ``cache=None`` disables caching entirely; ``refresh=True`` bypasses
    lookups but still stores fresh results.  ``progress`` (if given) is
    called once per finished scenario, in completion order.
    ``overrides`` maps scenario name -> parameter overrides (the CLI's
    ``--set NAME:KEY=VALUE``); overridden parameters feed the cache key
    like any other, so overridden runs never collide with defaults.
    """
    work = _resolve(scenarios, smoke, seed_base, overrides)
    return run_batch(
        work,
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        smoke=smoke,
        seed_base=seed_base,
        progress=progress,
    )
