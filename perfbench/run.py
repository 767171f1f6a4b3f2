"""The repository's benchmark: one workload per invocation, checked outputs.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Runs the named workload (see ``README.md`` in this directory) for about
``--seconds`` seconds of timed passes after set-up, checks every scenario
output against its recorded digest, writes a result file under
``perfbench/results/`` and prints the metrics; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.

Every process the benchmark starts is a child of this one, started and
waited for here; all scratch files live under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import (
    COLD, DIGESTS, EXPECTED_SPANS, HERE, ROOT, SRC, WORKLOADS, gate, load_digests,
    seed_overrides, set_arguments,
)

BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Whole-run budget for child processes, below the 180 s a run may take.
CHILD_DEADLINE_S = 170.0
#: ``pass_s.tail`` is the highest percentile with at least this many
#: passes beyond it.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """A child process failed or the benchmark found itself inconsistent."""


# -- child processes ---------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_NO_FAST_PATH", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: Sequence[str], workdir: Path, label: str, deadline: float,
              env: Optional[Dict[str, str]] = None) -> float:
    """Run one child to completion; returns its peak RSS in MB.

    The child is reaped with ``wait4`` so that its own resource usage is
    read, not the sum over every child of this process.
    """
    with open(workdir / f"{label}.out", "wb") as out, open(workdir / f"{label}.err", "wb") as err:
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=env or child_env(),
                                stdout=out, stderr=err)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise BenchError(f"{label}: over the {CHILD_DEADLINE_S:.0f} s budget")
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / f"{label}.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"{label} exited with {proc.returncode}:\n{tail}")
    return usage.ru_maxrss / 1024.0


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def run_cold(args, workdir: Path, deadline: float) -> Tuple[List[float], List[dict], float]:
    """Set-ups and passes of a cold workload, each set-up a fresh worker."""
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    setups = []
    for index in range(SETUPS - 1):
        out = workdir / f"setup{index}.json"
        run_child(base + ["--setup-only", "--out", str(out),
                          "--spawn-ts", repr(time.monotonic())],
                  workdir, f"setup{index}", deadline)
        setups.append(read_json(out)["setup_s"])
    out = workdir / "run.json"
    run_child(base + ["--out", str(out), "--spawn-ts", repr(time.monotonic())],
              workdir, "run", deadline)
    result = read_json(out)
    return setups + [result["setup_s"]], result["passes"], result["peak_rss_mb"]


def run_warm(args, workdir: Path, deadline: float) -> Tuple[List[float], List[dict], float]:
    """``warm_rerun``: cold CLI sweeps fill caches, then fresh CLI passes hit."""
    def sweep(label: str, cache_dir: Path, traced: bool) -> Tuple[dict, float]:
        out = workdir / f"{label}.json"
        argv = [sys.executable, str(HERE / "sweep_child.py"), "--out", str(out),
                "--spawn-ts", repr(time.monotonic())]
        if traced:
            argv.append("--trace")
        argv += ["--", "sweep", "run", *WORKLOADS["warm_rerun"], "--jobs", "1",
                 "--cache-dir", str(cache_dir), "--out", str(workdir / f"{label}.report.json")]
        argv += set_arguments(seed_overrides(WORKLOADS["warm_rerun"], args.seed, args.smoke))
        if args.smoke:
            argv.append("--smoke")
        rss = run_child(argv, workdir, label, deadline)
        return read_json(out), rss

    setups, passes = [], []
    for index in range(SETUPS):
        record, _ = sweep(f"setup{index}", workdir / f"cache{index}", traced=False)
        setups.append(record["seconds"])
        passes.append(dict(record, setup=True))
    cache_dir = workdir / f"cache{SETUPS - 1}"
    peak = 0.0
    started = time.monotonic()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        record, rss = sweep(f"pass{index}", cache_dir, traced)
        passes.append(record)
        peak = max(peak, rss)
        index += 1
        if time.monotonic() - started >= args.seconds and (not args.trace or index >= 2):
            return setups, passes, peak


# -- statistics --------------------------------------------------------------

def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with ``TAIL_BEYOND`` passes beyond it, but
    never below p75 (nearest rank).

    That percentile climbs above p75 only from ``4 * TAIL_BEYOND`` passes
    on; a run holds fewer, and a lower percentile would be no tail at all,
    while the single slowest pass of a short run is mostly noise from the
    rest of the machine.  The label says which percentile was taken.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(0.75 * n))  # 1-based nearest rank
    return ordered[rank - 1], (f"p{100.0 * rank / n:.1f} of {n} passes "
                               f"({n - rank} beyond it)")


def calibration_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop (host speed record)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def host_record() -> Dict[str, object]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
        "calibration_s": calibration_seconds(),
    }


# -- metrics -----------------------------------------------------------------

def layer_metrics(passes: List[dict], untraced_p50: float, traced_p50: float) -> Dict[str, float]:
    """Per-layer metrics, per traced pass (self seconds unless stated)."""
    traced = [p for p in passes if p.get("traced")]
    n = len(traced)
    spans: Dict[str, Dict[str, float]] = {}
    for p in traced:
        for name, s in p["spans"]["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})
            for key in agg:
                agg[key] += s[key]

    def get(field: str, *names: str) -> float:
        return sum(spans.get(name, {}).get(field, 0) for name in names) / n

    def self_s(*names: str) -> float:
        return get("self_s", *names)

    def calls(*names: str) -> float:
        return get("calls", *names)

    def per_pass(section: str, key: str) -> float:
        return sum(p[section][key] for p in traced) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses = per_pass("cache", "hits"), per_pass("cache", "misses")
    engine = {key: per_pass("engine", key) for key in traced[0]["engine"]}
    iterations = (engine["probe_iterations"] + engine["extrapolated_iterations"]
                  + engine["reference_iterations"])
    trials = get("units", "faults.classify")
    requests = get("units", "serve.simulate")
    m: Dict[str, float] = {
        "sweep.cache_load_s": self_s("sweep.cache_load"),
        "sweep.cache_store_s": self_s("sweep.cache_store"),
        "sweep.cache_hits": hits,
        "sweep.cache_misses": misses,
        "sweep.cache_stores": per_pass("cache", "stores"),
        "sweep.hit_ratio": ratio(hits, hits + misses),
        "checks.graph_s": self_s("checks.graph"),
        "checks.fingerprint_s": self_s("checks.fingerprint"),
        "checks.fingerprints": calls("checks.fingerprint"),
    }
    # Scenario spans are inclusive: they partition a pass, so they place a
    # pass-time change on the scenario that carries it.
    for name in WORKLOADS["warm_rerun"]:
        m[f"scenario.{name}.s"] = get("total_s", f"scenario.{name}")
    m.update({
        "core.load_s": self_s("core.load"),
        "core.load_robust_s": self_s("core.load_robust"),
        "core.scrub_s": self_s("core.scrub"),
        "core.robust_loads": calls("core.load_robust"),
        "core.scrubs": calls("core.scrub"),
        "periph.icap_s": self_s("periph.icap", "periph.readback"),
        "periph.readback_frames": calls("periph.readback"),
        "bus.request_s": self_s("bus.request"),
        "bus.requests": calls("bus.request"),
        "bus.burst_s": self_s("bus.burst"),
        "bus.bursts": calls("bus.burst"),
        "bus.bridge_s": self_s("bus.bridge"),
        "bus.bridge_accesses": calls("bus.bridge"),
        "bus.host_ns_per_request": 1e9 * ratio(self_s("bus.request"), calls("bus.request")),
    })
    for key in traced[0]["sim"]:
        m[key] = per_pass("sim", key)
    m.update({
        "engine.run_steady_s": self_s("engine.run_steady"),
        **{f"engine.{key}": value for key, value in engine.items()},
        "engine.extrapolated_share": ratio(engine["extrapolated_iterations"], iterations),
        "cpu.io_s": self_s("cpu.io"),
        "cpu.io_calls": calls("cpu.io"),
        "dock.dma_s": self_s("dock.dma"),
        "dock.dma_blocks": calls("dock.dma"),
        "kernels.s": self_s("kernels"),
        "kernels.calls": calls("kernels"),
        "bitstream.static_init_s": self_s("bitstream.static_init"),
        "bitstream.link_s": self_s("bitstream.link"),
        "bitstream.rig_memo_hits": per_pass("rig_memo", "hits"),
        "bitstream.rig_memo_misses": per_pass("rig_memo", "misses"),
        "faults.calibrate_s": self_s("faults.calibrate"),
        "faults.classify_s": self_s("faults.classify"),
        "faults.reference_s": self_s("faults.reference"),
        "faults.trials_classified": trials,
        "faults.trials_per_s": ratio(trials, get("total_s", "faults.classify")),
        "faults.trial_s": self_s("faults.trial"),
        "faults.sim_trials": calls("faults.trial"),
        "serve.calibrate_s": self_s("serve.calibrate"),
        "serve.simulate_s": self_s("serve.simulate"),
        "serve.requests": requests,
        "serve.requests_per_s": ratio(requests, get("total_s", "serve.simulate")),
        "workloads.trace_s": self_s("workloads.trace"),
        "trace.overhead_share": traced_p50 / untraced_p50 - 1.0,
    })
    return m


def trace_problems(workload: str, passes: List[dict]) -> List[str]:
    """Traced passes must run the same program as untraced ones."""
    problems = []
    timed = [p for p in passes if not p.get("setup")]
    engines = {json.dumps(p["engine"], sort_keys=True) for p in timed}
    if len(engines) != 1:
        problems.append(f"engine telemetry differs between passes: {sorted(engines)}")
    for p in timed:
        if p.get("traced"):
            spans = p["spans"]["spans"]
            for name in EXPECTED_SPANS[workload]:
                if spans.get(name, {}).get("calls", 0) == 0:
                    problems.append(f"span {name} recorded no call on {workload}")
    return problems


# -- main --------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="derives every scenario seed as the sweep's seed_base would, "
                             "except mc_vulnerability's (default: the paper's seeds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds after set-up (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scenario smoke parameters (tests of the benchmark)")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="recorded digests to check outputs against")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = read_json(BENCHMARK)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    started = time.monotonic()
    deadline = started + CHILD_DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = run_cold if args.workload in COLD else run_warm
        setups, passes, peak_rss = runner(args, workdir, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_record()

    recorded = load_digests(args.digests)
    reference: Dict[str, str] = {}
    failed = attempted = unrecorded = 0
    problems: List[str] = []
    for p in passes:
        if p.get("exit", 0) != 0:
            problems.append(f"sweep exited with {p['exit']}")
        f, u, why = gate(p["records"], recorded, reference)
        failed, unrecorded, attempted = failed + f, unrecorded + u, attempted + len(p["records"])
        problems += why
    if args.trace:
        problems += trace_problems(args.workload, passes)

    timed = [p for p in passes if not p.get("setup")]
    untraced = [p["seconds"] for p in timed if not p.get("traced")]
    p50 = statistics.median(untraced)
    tail_value, tail_label = tail(untraced)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "pass_s.p50": p50,
        "pass_s.tail": tail_value,
        "peak_rss_mb": peak_rss,
        "ok_share": (attempted - failed) / attempted,
    }
    report = {"note": "simulated times are unvalidated against hardware",
              "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "host": host,
              "setups_s": setups, "pass_s": untraced, "tail": tail_label,
              "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
              "unrecorded": unrecorded, "problems": problems,
              "end_to_end": end_to_end}
    if args.trace:
        traced_p50 = statistics.median(p["seconds"] for p in timed if p.get("traced"))
        report["per_layer"] = layer_metrics(timed, p50, traced_p50)
        report["spans"] = [p["spans"] for p in timed if p.get("traced")]
        emitted, section = report["per_layer"], "per_layer"
    else:
        emitted, section = end_to_end, "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    if set(emitted) != set(units):
        print(f"error: metrics {sorted(set(emitted) ^ set(units))} disagree with "
              f"{BENCHMARK.name}", file=sys.stderr)
        return 1

    RESULTS.mkdir(parents=True, exist_ok=True)
    seed_label = "paper" if args.seed is None else str(args.seed)
    result_file = RESULTS / f"{args.workload}-seed{seed_label}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    correct = failed == 0 and not problems
    print(f"workload {args.workload}  seed {seed_label}  trace {args.trace}  "
          f"{len(untraced)} untraced pass(es), {len(timed) - len(untraced)} traced")
    print(f"host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"commit={host['git_commit']} dirty={host['git_dirty']} "
          f"calibration={host['calibration_s']:.4f} s")
    print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"pass_s.tail is the {tail_label}")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} scenario runs; "
          f"{unrecorded} with no recorded digest, checked run-to-run)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, value in emitted.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in emitted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
