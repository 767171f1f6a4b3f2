"""One process of a cold workload: set up, then run timed passes.

Started by ``run.py``; not meant to be run by hand.  Set-up is what the
process does before its first pass: import the program, compute the
result-cache keys of every job (the call-graph fingerprints) and fill the
static-frame memo of the paper's two systems.  Each pass then calls
``repro.sweep.runner.run_sweep`` with ``jobs=1`` and a ``ResultCache`` on
a fresh, empty directory, so every scenario is a miss plus a store.

With ``--trace 1`` passes alternate untraced and traced (spans installed
by :mod:`spans`), starting untraced.  The result file holds the set-up
time and one record per pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import time
from pathlib import Path

from spans import Tracer, import_boundary_modules, install
from workloads import (
    WORKLOADS, inputs_key, outcome_records, resolve_jobs, seed_overrides, sim_stats,
)


def _engine_counters():
    from repro.bitstream.generator import rig_memo_telemetry
    from repro.engine import batch

    rig = rig_memo_telemetry()
    return batch.telemetry().as_dict(), {"hits": rig.hits, "misses": rig.misses}


def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


def run_pass(jobs, keys, overrides, smoke, cache_dir: Path, tracer=None):
    from repro.sweep.cache import ResultCache
    from repro.sweep.runner import run_sweep

    scenarios = [entry for entry, _ in jobs]
    cache = ResultCache(cache_dir)
    engine0, rig0 = _engine_counters()
    patch = None
    if tracer is not None:
        tracer.reset()
        patch = install(tracer)
    try:
        start = time.perf_counter()
        outcome = run_sweep(scenarios, jobs=1, cache=cache, smoke=smoke, overrides=overrides)
        seconds = time.perf_counter() - start
    finally:
        if patch is not None:
            patch.remove()
    engine1, rig1 = _engine_counters()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "seconds": seconds,
        "traced": tracer is not None,
        "records": outcome_records(outcome, keys),
        "cache": dict(outcome.cache_stats),
        "engine": _delta(engine1, engine0),
        "rig_memo": _delta(rig1, rig0),
        "sim": sim_stats(outcome),
        "spans": tracer.snapshot() if tracer is not None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawn-ts", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    jobs = resolve_jobs(WORKLOADS[args.workload], args.seed, args.smoke)
    overrides = seed_overrides(WORKLOADS[args.workload], args.seed, args.smoke)
    from repro.core import build_system32, build_system64
    from repro.sweep.cache import cache_key

    keys = {entry.name: inputs_key(entry.name, params) for entry, params in jobs}
    for entry, params in jobs:
        cache_key(entry, params)
    build_system32()
    build_system64()
    setup_s = time.monotonic() - args.spawn_ts
    result = {"setup_s": setup_s, "passes": []}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import_boundary_modules()
            tracer = Tracer()
        started = time.perf_counter()
        while True:
            index = len(result["passes"])
            traced = bool(args.trace) and index % 2 == 1
            result["passes"].append(run_pass(
                jobs, keys, overrides, args.smoke, args.workdir / f"cache{index}",
                tracer if traced else None,
            ))
            if index == 0:
                # Memory keeps growing over passes (allocator and memo
                # growth), so the peak is read after the first pass to keep
                # it independent of how many passes fit in the run.
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            done = time.perf_counter() - started >= args.seconds
            if done and (not args.trace or index >= 1):
                break
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
