"""Sweep orchestrator: parallel == serial, crash recovery, aggregation.

The load-bearing guarantee is that orchestration only changes *host*
cost: a scenario's simulated numbers must be byte-identical whether it
ran serially, in a worker process, or came out of the cache.
"""

import json
import os

import pytest

from repro.engine.stats import StatsGroup
from repro.scenarios import ScenarioResult, get_scenario
from repro.scenarios.registry import _REGISTRY, register_scenario
from repro.sweep import ResultCache, apply_seed_base, run_sweep

#: Cheap full-fidelity scenarios for cross-process equality checks.
CHEAP = ["ablation_busmacro", "fig1_generic_architecture", "fig2_bus_macros"]


@pytest.fixture
def scratch():
    added = []

    def _register(name, fn, **kwargs):
        entry = register_scenario(name, fn, **kwargs)
        added.append(name)
        return entry

    yield _register
    for name in added:
        _REGISTRY.pop(name, None)


def _wire(outcome):
    """Canonical bytes of every result in a sweep, for equality checks."""
    return [
        json.dumps(o.result.to_dict(), sort_keys=True) if o.result else None
        for o in outcome.outcomes
    ]


# -- parallel-vs-serial equality ---------------------------------------------

def test_parallel_results_equal_serial():
    scenarios = [get_scenario(name) for name in CHEAP]
    serial = run_sweep(scenarios, jobs=1, cache=None)
    parallel = run_sweep(scenarios, jobs=2, cache=None)
    assert serial.ok and parallel.ok
    assert _wire(serial) == _wire(parallel)
    assert [o.name for o in parallel.outcomes] == CHEAP  # input order kept


def test_cached_results_equal_fresh(tmp_path):
    scenarios = [get_scenario(name) for name in CHEAP]
    cache = ResultCache(tmp_path)
    cold = run_sweep(scenarios, jobs=1, cache=cache)
    warm = run_sweep(scenarios, jobs=1, cache=cache)
    assert _wire(cold) == _wire(warm)
    assert all(o.cache == "miss" for o in cold.outcomes)
    assert all(o.cache == "hit" for o in warm.outcomes)
    # Hits report the cold run's compute cost, not their own ~0s lookup.
    for before, after in zip(cold.outcomes, warm.outcomes):
        assert after.compute_seconds == before.compute_seconds


def test_refresh_recomputes_but_stores(tmp_path):
    scenarios = [get_scenario(CHEAP[0])]
    cache = ResultCache(tmp_path)
    run_sweep(scenarios, jobs=1, cache=cache)
    refreshed = run_sweep(scenarios, jobs=1, cache=cache, refresh=True)
    assert refreshed.outcomes[0].cache == "refresh"
    assert cache.telemetry.stores == 2


def test_smoke_params_flow_to_scenarios(scratch):
    scratch(
        "scratch_smokey",
        lambda n: ScenarioResult(name="scratch_smokey", headers=["n"], rows=[[n]]),
        params={"n": 100},
        smoke_params={"n": 2},
    )
    outcome = run_sweep([get_scenario("scratch_smokey")], jobs=1, smoke=True)
    assert outcome.outcomes[0].result.rows == [[2]]
    assert outcome.smoke


# -- failure containment ------------------------------------------------------

def test_failed_scenario_does_not_sink_the_sweep(scratch):
    def boom():
        raise ValueError("deliberate failure")

    scratch("scratch_boom", boom)
    scenarios = [get_scenario("scratch_boom"), get_scenario(CHEAP[0])]
    outcome = run_sweep(scenarios, jobs=1, cache=None)
    assert not outcome.ok
    failed, healthy = outcome.outcomes
    assert failed.status == "failed"
    assert "deliberate failure" in failed.error
    assert healthy.status == "ok"
    assert [f.name for f in outcome.failures] == ["scratch_boom"]


def test_failed_run_reports_no_compute_seconds(scratch):
    """A failed run produced no result: its host time must land in
    ``failed_seconds``, not pollute the serial-compute aggregate the
    report derives speedup claims from."""
    import time

    def slow_boom():
        time.sleep(0.05)  # repro: noqa LINT001 (host-side test fixture)
        raise ValueError("deliberate failure")

    scratch("scratch_slow_boom", slow_boom)
    outcome = run_sweep(
        [get_scenario("scratch_slow_boom"), get_scenario(CHEAP[0])], jobs=1, cache=None
    )
    failed, healthy = outcome.outcomes
    assert failed.status == "failed"
    assert failed.compute_seconds == 0.0
    assert failed.failed_seconds >= 0.05
    assert healthy.failed_seconds == 0.0
    assert healthy.compute_seconds > 0.0

    from repro.sweep import build_report

    report = build_report(outcome)
    assert report["serial_compute_seconds"] == pytest.approx(
        healthy.compute_seconds, abs=1e-6
    )
    assert report["failed_seconds"] >= 0.05
    record = next(s for s in report["scenarios"] if s["name"] == "scratch_slow_boom")
    assert record["compute_seconds"] == 0.0
    assert record["failed_seconds"] >= 0.05


def test_worker_crash_triggers_serial_retry(scratch):
    parent = os.getpid()

    def fragile(parent_pid):
        if os.getpid() != parent_pid:
            os._exit(17)  # hard-kill the worker: no exception to catch
        return ScenarioResult(name="scratch_fragile", headers=["pid"], rows=[[1]])

    scratch("scratch_fragile", fragile, params={"parent_pid": parent})
    outcome = run_sweep([get_scenario("scratch_fragile")], jobs=2, cache=None)
    assert outcome.pool_broken
    entry = outcome.outcomes[0]
    assert entry.status == "ok"
    assert entry.retried_serially
    assert entry.result.rows == [[1]]


# -- cross-process stats aggregation ------------------------------------------

def test_merged_stats_aggregate_across_scenarios(scratch):
    def with_stats(name, count):
        group = StatsGroup("bus")
        group.count("reads", count)
        group.record("latency", count * 10)
        return ScenarioResult(
            name=name, headers=["n"], rows=[[count]], stats={"bus": group.snapshot()}
        )

    scratch("scratch_stats_a", lambda: with_stats("scratch_stats_a", 3))
    scratch("scratch_stats_b", lambda: with_stats("scratch_stats_b", 5))
    outcome = run_sweep(
        [get_scenario("scratch_stats_a"), get_scenario("scratch_stats_b")], jobs=1
    )
    merged = outcome.merged_stats()
    assert merged["bus"].counters["reads"] == 8
    total, count, _, _ = merged["bus"].accumulators["latency"]
    assert count == 2
    assert total == 80


# -- seed derivation ----------------------------------------------------------

def test_apply_seed_base_rewrites_only_seed_params():
    params = {"pattern_seed": 2006, "lengths": (1, 2), "seed": 5}
    untouched = apply_seed_base("s", params, None)
    assert untouched == params
    derived = apply_seed_base("s", params, 42)
    assert derived["lengths"] == (1, 2)
    assert derived["pattern_seed"] != 2006
    assert derived["seed"] != 5
    # Deterministic: same base, same scenario, same derived seeds.
    assert derived == apply_seed_base("s", params, 42)
    # Distinct per scenario name.
    assert derived["seed"] != apply_seed_base("other", params, 42)["seed"]


# -- per-scenario parameter overrides (--set) ---------------------------------

def test_overrides_reach_the_scenario_and_compose_with_smoke(scratch):
    scratch(
        "scratch_tuned",
        lambda n, m: ScenarioResult(
            name="scratch_tuned", headers=["n", "m"], rows=[[n, m]]
        ),
        params={"n": 100, "m": 7},
        smoke_params={"n": 2},
    )
    entry = get_scenario("scratch_tuned")
    outcome = run_sweep(
        [entry], jobs=1, smoke=True, overrides={"scratch_tuned": {"m": 99}}
    )
    # Smoke reduces n, the override pins m — they compose, override last.
    assert outcome.outcomes[0].result.rows == [[2, 99]]
    overridden = run_sweep(
        [entry], jobs=1, smoke=True,
        overrides={"scratch_tuned": {"n": 5, "m": 99}},
    )
    assert overridden.outcomes[0].result.rows == [[5, 99]]


def test_overridden_params_feed_the_cache_key(tmp_path, scratch):
    scratch(
        "scratch_keyed",
        lambda n: ScenarioResult(name="scratch_keyed", headers=["n"], rows=[[n]]),
        params={"n": 1},
    )
    entry = get_scenario("scratch_keyed")
    cache = ResultCache(tmp_path)
    default = run_sweep([entry], jobs=1, cache=cache)
    tuned = run_sweep([entry], jobs=1, cache=cache, overrides={"scratch_keyed": {"n": 3}})
    # A different parameter value is a different key: no collision...
    assert default.outcomes[0].cache == "miss"
    assert tuned.outcomes[0].cache == "miss"
    assert tuned.outcomes[0].result.rows == [[3]]
    # ...and re-running either configuration hits its own entry.
    again = run_sweep([entry], jobs=1, cache=cache, overrides={"scratch_keyed": {"n": 3}})
    assert again.outcomes[0].cache == "hit"
    assert again.outcomes[0].result.rows == [[3]]


def test_unknown_override_parameter_fails_the_scenario(scratch):
    scratch(
        "scratch_strict",
        lambda n: ScenarioResult(name="scratch_strict", headers=["n"], rows=[[n]]),
        params={"n": 1},
    )
    with pytest.raises(Exception, match="no parameter"):
        run_sweep(
            [get_scenario("scratch_strict")],
            jobs=1,
            overrides={"scratch_strict": {"typo": 5}},
        )
