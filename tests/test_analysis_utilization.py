"""Tests for the utilization profiler."""

import pytest

from repro.analysis import profile_run
from repro.core import TransferBench, memmap
from repro.core.apps import HwJenkinsHash
from repro.workloads import random_key


def test_profile_reports_bus_occupancy(system32, manager32):
    manager32.load("lookup2")
    key = random_key(512, seed=90)
    report = profile_run(system32, lambda: HwJenkinsHash().run(system32, key))
    assert report.window_ps > 0
    assert "opb32" in report.buses
    assert "plb32" in report.buses
    opb = report.buses["opb32"]
    assert 0 < opb.occupancy <= 1.0
    assert opb.transactions > 0
    assert opb.mean_transaction_ps > 0


def test_profile_returns_workload_result(system32, manager32):
    manager32.load("lookup2")
    key = random_key(64, seed=91)
    report = profile_run(system32, lambda: HwJenkinsHash().run(system32, key))
    assert report.result.result is not None


def test_pio_transfer_run_is_bus_bound(system32):
    # Per-word uncached reads keep the CPU's bus port saturated.  (The
    # CPU's io_read_batch shortcut would charge the same time without
    # issuing traced requests.)
    def workload():
        for i in range(100):
            system32.cpu.io_read(memmap.STAGE_INPUT + 4 * i)

    report = profile_run(system32, workload)
    assert report.bottleneck in ("plb32", "opb32")
    assert report.buses["plb32"].occupancy > 0.5


def test_compute_heavy_run_is_cpu_bound(system32):
    from repro.cpu.isa import InstructionMix

    def workload():
        system32.cpu.execute(InstructionMix(alu=50_000))
        system32.cpu.io_read(memmap.STAGE_INPUT)
        return None

    report = profile_run(system32, workload)
    assert report.bottleneck == "cpu"


def test_tracers_restored_after_profile(system32):
    sentinel = object()
    system32.plb.tracer = sentinel
    profile_run(system32, lambda: system32.cpu.io_read(memmap.STAGE_INPUT))
    assert system32.plb.tracer is sentinel


def test_summary_lines_mention_buses(system32):
    report = profile_run(system32, lambda: system32.cpu.io_read(memmap.STAGE_INPUT))
    text = "\n".join(report.summary_lines())
    assert "bottleneck" in text
    assert "us" in text
