"""Workload definitions and the output-digest gate.

The four workloads partition the 39-scenario registry (``paper_sweep``,
``fault_recovery``, ``serve_trace``) or cover all of it (``warm_rerun``).
Each scenario run is identified by its *inputs key* -- the scenario name
plus a hash of its resolved parameters, which is where the benchmark seed
enters -- and its output by the SHA-256 of the canonical JSON of
``ScenarioResult.to_dict()``.  ``digests.json`` maps inputs keys to the
digests recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

PAPER_SWEEP: Tuple[str, ...] = (
    "table01_resources32", "table02_transfers32", "table03_patmatch32",
    "table04_hash32", "table05_image32", "table06_resources64",
    "table07_transfers64_pio", "table08_transfers64_dma", "table09_patmatch64",
    "table10_hash64", "table11_sha1", "table12_image64",
    "ablation_amortization", "ablation_bitlinker", "ablation_boot",
    "ablation_bridge", "ablation_burst", "ablation_busmacro", "ablation_cache",
    "ablation_fifo", "ablation_irq_vs_poll", "ablation_keydist",
    "ablation_posted",
    "fig1_generic_architecture", "fig2_bus_macros", "fig3_system32_floorplan",
    "fig4_system64_floorplan",
    "perf_engine_e2e", "perf_reconfig", "dse_reconfig", "dse_throughput",
)
FAULT_RECOVERY: Tuple[str, ...] = (
    "fault_campaign", "robust_overhead", "mc_campaign", "mc_vulnerability",
    "dse_recovery",
)
SERVE_TRACE: Tuple[str, ...] = (
    "serve_headline", "serve_policy_matrix", "serve_fragmentation",
)

#: workload -> scenarios one pass runs.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "paper_sweep": PAPER_SWEEP,
    "fault_recovery": FAULT_RECOVERY,
    "serve_trace": SERVE_TRACE,
    "warm_rerun": tuple(sorted(PAPER_SWEEP + FAULT_RECOVERY + SERVE_TRACE)),
}

#: Workloads whose passes run in the benchmark's worker process, each pass
#: a cold ``run_sweep`` against an empty result cache.  ``warm_rerun``
#: passes are fresh ``repro sweep run`` processes on a filled cache.
COLD = ("paper_sweep", "fault_recovery", "serve_trace")

#: Scenarios that keep their paper seeds whatever ``--seed`` is.
#: ``mc_vulnerability`` requires the 95% confidence interval of its
#: estimate to cover the analytic essential-bit fraction.  A 95% interval
#: misses on a few seeds in a hundred (``seed_base`` 16 and 73 among 0-99),
#: and the scenario then fails with a ``CheckError``: a known program
#: defect, shown by ``python3 -m repro sweep run mc_vulnerability
#: --seed-base 16 --no-cache``.  Deriving its seed from ``--seed`` would
#: make that many benchmark runs fail on that check rather than measure
#: anything, so it runs at its paper seed.
PAPER_SEEDED: Tuple[str, ...] = ("mc_vulnerability",)

#: Span names each workload must record at least once when traced; a zero
#: count means a wrapper missed a binding site (a benchmark bug).
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "paper_sweep": (
        "sweep.cache_load", "sweep.cache_store", "checks.fingerprint",
        "core.load", "periph.icap", "bus.request", "bus.burst", "bus.bridge",
        "engine.run_steady", "cpu.io", "dock.dma", "kernels",
        "bitstream.static_init", "bitstream.link",
    ),
    "fault_recovery": (
        "sweep.cache_load", "sweep.cache_store", "checks.fingerprint",
        "core.load", "core.load_robust", "core.scrub", "periph.icap",
        "periph.readback", "bus.request", "bus.bridge",
        "bitstream.static_init", "bitstream.link", "faults.calibrate",
        "faults.classify", "faults.reference", "faults.trial",
    ),
    "serve_trace": (
        "sweep.cache_load", "sweep.cache_store", "checks.fingerprint",
        "serve.calibrate", "serve.simulate", "workloads.trace",
    ),
    "warm_rerun": ("sweep.cache_load", "checks.graph", "checks.fingerprint"),
}


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def seed_overrides(names: Sequence[str], seed: Optional[int],
                   smoke: bool) -> Optional[Dict[str, Dict[str, int]]]:
    """The seed parameters ``--seed`` gives each scenario, as sweep overrides.

    Each scenario's seeds are derived exactly as ``run_sweep(seed_base=seed)``
    derives them, except that the scenarios in :data:`PAPER_SEEDED` keep
    their paper seeds.  ``None`` (the paper's seeds) when ``seed`` is None.
    """
    if seed is None:
        return None
    use_source_tree()
    from repro.scenarios import get_scenario
    from repro.sweep.runner import apply_seed_base

    overrides: Dict[str, Dict[str, int]] = {}
    for name in names:
        if name in PAPER_SEEDED:
            continue
        params = get_scenario(name).resolve_params(smoke=smoke)
        derived = apply_seed_base(name, params, seed)
        seeds = {key: int(derived[key]) for key in params
                 if key == "seed" or key.endswith("_seed")}
        if seeds:
            overrides[name] = seeds
    return overrides


def resolve_jobs(names: Sequence[str], seed: Optional[int], smoke: bool):
    """``(scenario, params)`` pairs exactly as ``run_sweep`` resolves them
    with the overrides of :func:`seed_overrides`."""
    use_source_tree()
    from repro.scenarios import get_scenario

    overrides = seed_overrides(names, seed, smoke) or {}
    jobs = []
    for name in names:
        entry = get_scenario(name)
        jobs.append((entry, entry.resolve_params(overrides.get(name), smoke=smoke)))
    return jobs


def set_arguments(overrides: Optional[Dict[str, Dict[str, int]]]) -> List[str]:
    """``overrides`` as ``repro sweep run`` arguments (``--set NAME:KEY=VALUE``)."""
    argv: List[str] = []
    for name, params in sorted((overrides or {}).items()):
        for key, value in sorted(params.items()):
            argv += ["--set", f"{name}:{key}={value}"]
    return argv


def inputs_key(name: str, params) -> str:
    """``<scenario>:<16 hex of the canonical parameters' SHA-256>``."""
    from repro.sweep.cache import canonical_params

    text = canonical_params(params)
    return f"{name}:{hashlib.sha256(text.encode('utf-8')).hexdigest()[:16]}"


def result_digest(result) -> str:
    """SHA-256 of the canonical JSON of ``ScenarioResult.to_dict()``."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_records(outcome, keys: Dict[str, str]) -> List[Dict[str, object]]:
    """Per-scenario ``{name, key, status, digest}`` of one sweep outcome."""
    records = []
    for entry in outcome.outcomes:
        records.append({
            "name": entry.name,
            "key": keys[entry.name],
            "status": entry.status,
            "digest": result_digest(entry.result) if entry.result is not None else None,
        })
    return records


def sim_stats(outcome) -> Dict[str, float]:
    """Simulated bus time, beats and contention from the merged stats."""
    merged = outcome.merged_stats()
    values: Dict[str, float] = {}
    for bus in ("plb32", "opb32", "plb64", "opb64"):
        group = merged.get(bus)
        snap = group.snapshot() if group is not None else {"counters": {}, "accumulators": {}}
        accs = snap["accumulators"]
        values[f"sim.{bus}.busy_ns"] = accs.get("busy_ps", {}).get("total", 0.0) / 1000.0
        values[f"sim.{bus}.beats"] = float(snap["counters"].get("beats", 0))
        if bus == "plb64":
            contention = sum(acc["total"] for name, acc in accs.items()
                             if name.endswith(".contention_ps"))
            values["sim.plb64.contention_ns"] = contention / 1000.0
    return values


def load_digests(path: Path = DIGESTS) -> Dict[str, str]:
    if not path.exists():
        return {}
    return dict(json.loads(path.read_text(encoding="utf-8"))["digests"])


def save_digests(digests: Dict[str, str], path: Path = DIGESTS) -> None:
    payload = {"schema": 1, "digests": dict(sorted(digests.items()))}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def gate(records: Sequence[Dict[str, object]], recorded: Dict[str, str],
         reference: Dict[str, str]) -> Tuple[int, int, List[str]]:
    """Count failed runs among ``records``.

    A run fails when the scenario failed, when its digest differs from the
    one recorded for its inputs, or -- for inputs with no recorded digest --
    when it differs from the first digest seen for them in this run
    (``reference`` is filled as a side effect).  Returns ``(failed,
    unrecorded, problems)``.
    """
    failed = unrecorded = 0
    problems: List[str] = []
    for rec in records:
        key, digest = str(rec["key"]), rec["digest"]
        expected = recorded.get(key)
        if expected is None:
            unrecorded += 1
            expected = reference.setdefault(key, digest)
        if rec["status"] != "ok" or digest != expected:
            failed += 1
            problems.append(f"{rec['name']}: status={rec['status']} digest={str(digest)[:12]} "
                            f"expected={str(expected)[:12]}")
    return failed, unrecorded, problems
