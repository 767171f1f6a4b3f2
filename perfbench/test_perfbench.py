"""Tests of the benchmark itself, at smoke parameters.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    COLD, PAPER_SEEDED, WORKLOADS, inputs_key, load_digests, resolve_jobs, save_digests,
    seed_overrides, set_arguments, use_source_tree,
)

use_source_tree()

SEED = 7


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


def result_of(done: subprocess.CompletedProcess):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_digests(tmp_path_factory):
    """Smoke-parameter digests for the paper seeds and ``SEED``, recorded
    only where the fast path agrees with the reference path."""
    path = tmp_path_factory.mktemp("digests") / "digests.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "verify.py"), "--smoke", "--seed", "paper",
         "--seed", str(SEED), "--record", "--digests", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return path, done


def smoke_args(workload: str, trace: int, digests: Path):
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
            "--trace", str(trace), "--smoke", "--digests", str(digests)]


def test_workloads_partition_the_registry():
    from repro.scenarios import all_scenarios

    names = sorted(s.name for s in all_scenarios())
    cold = [name for workload in COLD for name in WORKLOADS[workload]]
    assert sorted(cold) == names
    assert len(set(cold)) == len(cold)
    assert list(WORKLOADS["warm_rerun"]) == names


def test_tail_is_highest_percentile_with_ten_beyond_but_at_least_p75():
    value, label = bench.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and label == "p90.0 of 100 passes (10 beyond it)"
    value, label = bench.tail([float(i) for i in range(1, 31)])
    assert value == 23.0 and label == "p76.7 of 30 passes (7 beyond it)"
    value, label = bench.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label == "p100.0 of 3 passes (0 beyond it)"


@pytest.mark.parametrize("workload,trace", [
    ("serve_trace", 0), ("serve_trace", 1), ("warm_rerun", 1),
])
def test_every_metric_prints_with_its_unit(smoke_digests, workload, trace):
    path, _ = smoke_digests
    lines, result = result_of(run_bench(*smoke_args(workload, trace, path)))
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in json.loads(bench.BENCHMARK.read_text())[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_corrupted_recorded_digest_counts_as_failed(smoke_digests, tmp_path):
    path, _ = smoke_digests
    digests = load_digests(path)
    (entry, params), = resolve_jobs(["serve_headline"], SEED, smoke=True)
    key = inputs_key(entry.name, params)
    digests[key] = "0" * 64
    corrupted = tmp_path / "corrupted.json"
    save_digests(digests, corrupted)

    _, clean = result_of(run_bench(*smoke_args("serve_trace", 0, path)))
    lines, bad = result_of(run_bench(*smoke_args("serve_trace", 0, corrupted)))
    passes = clean["attempted"] // len(WORKLOADS["serve_trace"])
    assert clean["failed"] == 0 and clean["correct"]
    assert bad["failed"] == bad["attempted"] // len(WORKLOADS["serve_trace"]) >= 1
    assert not bad["correct"]
    assert bad["metrics"]["ok_share"]["value"] < 1.0
    assert any(line.startswith("problem: serve_headline") for line in lines)
    assert passes >= 1


def test_seed_changes_inputs_while_fast_equals_reference(smoke_digests):
    path, done = smoke_digests
    assert done.returncode == 0, done.stdout + done.stderr
    for label in ("paper", str(SEED)):
        assert f"seed {label}: 39 scenarios, fast == reference 39/39" in done.stdout
    digests = load_digests(path)
    for name in ("serve_headline", "fault_campaign", "ablation_keydist"):
        (paper_entry, paper_params), = resolve_jobs([name], None, smoke=True)
        (seed_entry, seed_params), = resolve_jobs([name], SEED, smoke=True)
        paper_key = inputs_key(name, paper_params)
        seed_key = inputs_key(name, seed_params)
        assert paper_key != seed_key
        assert digests[paper_key] != digests[seed_key]
    (entry, params), = resolve_jobs(["table01_resources32"], SEED, smoke=True)
    assert inputs_key(entry.name, params) == inputs_key(
        entry.name, resolve_jobs(["table01_resources32"], None, smoke=True)[0][1])


def test_seeds_are_the_sweeps_seed_base_seeds_except_the_paper_seeded():
    from repro.sweep.runner import apply_seed_base

    names = WORKLOADS["warm_rerun"]
    seeded = {entry.name: params for entry, params in resolve_jobs(names, SEED, smoke=False)}
    for entry, paper in resolve_jobs(names, None, smoke=False):
        if entry.name in PAPER_SEEDED:
            assert seeded[entry.name] == paper
        else:
            assert seeded[entry.name] == apply_seed_base(entry.name, paper, SEED)
    overrides = seed_overrides(names, SEED, smoke=False)
    assert not set(overrides) & set(PAPER_SEEDED)
    argv = set_arguments(overrides)
    assert argv.count("--set") == sum(len(params) for params in overrides.values())
    assert f"fault_campaign:seed={overrides['fault_campaign']['seed']}" in argv


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    done = run_bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
