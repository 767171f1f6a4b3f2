"""Serve engine: chunked scheduler == per-request oracle, policy semantics, errors.

The load-bearing guarantee mirrors the repo's other block datapaths: the
vectorized scheduler (:func:`repro.serve.engine.simulate`, which works
in epoch-aligned chunks) and the per-request interpreter in
``tests/oracles/serve.py`` must produce byte-identical simulated
outcomes — decisions, finish timestamps, segment structure, allocator
stats — on any trace, any policy combination and any chunk size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.engine as engine
from repro.scenarios.registry import derive_seed
from repro.scenarios.rigs import build_rig64
from repro.serve.costtable import calibrate
from repro.serve.engine import (
    QUEUE_POLICIES,
    RESIDENCY_POLICIES,
    ServeConfig,
    ServeError,
    simulate,
)
from repro.serve.report import ServeReport
from repro.workloads.traces import ARRIVAL_MODELS, make_trace

from .oracles import serve as oracle

#: One calibration for the whole module: the cost table is immutable.
TABLE = calibrate(build_rig64, seed=2006)

ALL_COMBOS = [(q, r) for q in QUEUE_POLICIES for r in RESIDENCY_POLICIES]


def trace_for(requests, model="poisson", seed=7, util=0.7):
    gap = TABLE.mean_gap_for_utilization(util)
    return make_trace(model, requests, gap, derive_seed(seed, f"t:{model}"))


def both_paths(trace, config):
    return simulate(trace, TABLE, config), oracle.simulate(trace, TABLE, config)


# -- fast == reference --------------------------------------------------------

@pytest.mark.parametrize("queue,residency", ALL_COMBOS)
def test_fast_equals_reference_10k(queue, residency):
    trace = trace_for(10_000)
    config = ServeConfig(queue=queue, residency=residency)
    fast, ref = both_paths(trace, config)
    assert fast.observables() == ref.observables()
    assert ServeReport.from_outcome(fast).to_dict() == (
        ServeReport.from_outcome(ref).to_dict()
    )


def test_fast_equals_reference_narrow_region_with_defrag():
    trace = trace_for(6_000, model="bursty", util=0.9)
    for defrag in (True, False):
        config = ServeConfig(
            queue="fifo",
            residency="oracle",
            region_cols=17,
            defrag=defrag,
            oracle_lookahead=128,
        )
        fast, ref = both_paths(trace, config)
        assert fast.observables() == ref.observables()


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(list(ARRIVAL_MODELS)),
    queue=st.sampled_from(list(QUEUE_POLICIES)),
    residency=st.sampled_from(list(RESIDENCY_POLICIES)),
    requests=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fast_equals_reference_property(model, queue, residency, requests, seed):
    gap = TABLE.mean_gap_for_utilization(0.8)
    trace = make_trace(model, requests, gap, seed)
    config = ServeConfig(queue=queue, residency=residency)
    fast, ref = both_paths(trace, config)
    assert fast.observables() == ref.observables()


# -- chunk boundaries ---------------------------------------------------------

SMALL_CHUNKS = (1, 3, 64)


@pytest.mark.parametrize("queue,residency", ALL_COMBOS)
def test_small_chunks_equal_reference(monkeypatch, queue, residency):
    trace = trace_for(2_000)
    config = ServeConfig(queue=queue, residency=residency)
    ref = oracle.simulate(trace, TABLE, config)
    for chunk in SMALL_CHUNKS:
        monkeypatch.setattr(engine, "CHUNK_REQUESTS", chunk)
        fast = simulate(trace, TABLE, config)
        assert fast.observables() == ref.observables(), chunk
        assert ServeReport.from_outcome(fast).to_dict() == (
            ServeReport.from_outcome(ref).to_dict()
        ), chunk


def test_epoch_larger_than_chunk_is_one_chunk(monkeypatch):
    trace = trace_for(4_000, model="bursty", util=0.9)
    config = ServeConfig(queue="edf", residency="oracle")
    epochs = trace["arrival_ps"] // config.epoch_ps
    per_epoch = np.bincount(epochs)
    assert per_epoch.max() > max(SMALL_CHUNKS)
    ref = oracle.simulate(trace, TABLE, config)
    for chunk in SMALL_CHUNKS:
        monkeypatch.setattr(engine, "CHUNK_REQUESTS", chunk)
        bounds = list(engine._chunks(trace["arrival_ps"], config.epoch_ps))
        assert bounds[0][0] == 0 and bounds[-1][1] == trace.size
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert all(epochs[stop - 1] != epochs[stop] for _, stop in bounds[:-1])
        assert max(stop - start for start, stop in bounds) == per_epoch.max()
        assert simulate(trace, TABLE, config).observables() == ref.observables(), chunk


def test_simulate_peak_memory_is_bounded_by_its_outputs():
    """Per-request temporaries are bounded by the chunk: a 1M-request run
    peaks at under twice the bytes of its per-request output arrays."""
    trace = make_trace("poisson", 1_000_000, TABLE.mean_gap_for_utilization(0.7), 2006)
    tracemalloc.start()
    try:
        outcome = simulate(trace, TABLE, ServeConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(
        column.nbytes
        for column in (
            outcome.finish_ps, outcome.latency_ps, outcome.service_order, outcome.decisions,
        )
    )
    assert peak <= 2 * outputs, (peak, outputs)


def test_simulate_is_deterministic():
    trace = trace_for(5_000)
    config = ServeConfig(queue="edf", residency="oracle")
    a = simulate(trace, TABLE, config)
    b = simulate(trace, TABLE, config)
    assert a.observables() == b.observables()


# -- scheduling semantics -----------------------------------------------------

def test_finish_never_precedes_arrival_plus_cost():
    trace = trace_for(5_000)
    outcome = simulate(trace, TABLE, ServeConfig())
    assert np.all(outcome.finish_ps > trace["arrival_ps"])
    assert np.all(outcome.latency_ps > 0)


def test_policies_produce_distinct_latency_profiles():
    trace = trace_for(10_000)
    p99 = {}
    miss = {}
    for queue in QUEUE_POLICIES:
        outcome = simulate(trace, TABLE, ServeConfig(queue=queue))
        report = ServeReport.from_outcome(outcome)
        p99[queue] = report.p99_ps
        miss[queue] = report.deadline_miss_rate
    assert len(set(p99.values())) == 3
    assert miss["edf"] <= miss["fifo"]


def test_oracle_beats_lru_on_busy_time():
    trace = trace_for(10_000)
    lru = simulate(trace, TABLE, ServeConfig(residency="lru"))
    oracle = simulate(trace, TABLE, ServeConfig(residency="oracle"))
    assert oracle.busy_ps < lru.busy_ps
    lru_report = ServeReport.from_outcome(lru)
    oracle_report = ServeReport.from_outcome(oracle)
    assert oracle_report.software_share < lru_report.software_share


def test_priority_queue_favours_high_priority():
    trace = trace_for(10_000)
    outcome = simulate(trace, TABLE, ServeConfig(queue="priority"))
    pr = trace["priority"]
    hi = outcome.latency_ps[pr == pr.max()].mean()
    lo = outcome.latency_ps[pr == pr.min()].mean()
    assert hi < lo


def test_segment_arrays_cover_every_request():
    trace = trace_for(3_000)
    outcome = simulate(trace, TABLE, ServeConfig())
    assert int(outcome.seg_len.sum()) == 3_000
    assert outcome.seg_kernel.size == outcome.seg_decision.size
    assert outcome.seg_overhead_ps.size == outcome.seg_len.size


# -- validation ---------------------------------------------------------------

def test_bad_queue_policy_rejected():
    with pytest.raises(ServeError):
        ServeConfig(queue="sjf")


def test_bad_residency_policy_rejected():
    with pytest.raises(ServeError):
        ServeConfig(residency="random")


def test_bad_epoch_rejected():
    with pytest.raises(ServeError):
        ServeConfig(epoch_ps=0)


def test_bad_region_cols_rejected():
    with pytest.raises(ServeError):
        ServeConfig(region_cols=-3)


def test_size_class_out_of_table_range_rejected():
    trace = make_trace("poisson", 100, 1_000_000, seed=1, size_classes=9)
    with pytest.raises(ServeError):
        simulate(trace, TABLE, ServeConfig())


# -- zero-request outcomes ----------------------------------------------------

def test_report_from_zero_request_outcome_is_well_defined():
    """A windowed replay whose window precedes the first arrival admits
    zero requests; every per-request statistic must then be zero, not a
    ZeroDivisionError / empty-quantile crash."""
    from repro.serve.engine import ServeOutcome

    empty64 = np.zeros(0, dtype=np.int64)
    outcome = ServeOutcome(
        config=ServeConfig(),
        requests=0,
        decisions=np.zeros(0, dtype=np.uint8),
        finish_ps=empty64,
        latency_ps=empty64,
        service_order=empty64,
        busy_ps=0,
        span_ps=0,
        seg_kernel=empty64,
        seg_len=empty64,
        seg_decision=np.zeros(0, dtype=np.uint8),
        seg_overhead_ps=empty64,
    )
    report = ServeReport.from_outcome(outcome)
    assert report.requests == 0
    assert (report.p50_ps, report.p99_ps, report.p999_ps) == (0, 0, 0)
    assert report.mean_latency_ps == 0
    assert report.max_latency_ps == 0
    assert report.deadline_miss_rate == 0.0
    assert report.software_share == 0.0
    assert report.utilization == 0.0
    assert report.throughput_rps == 0.0
    assert report.amortization_curve == []
    assert report.decision_counts == {"resident": 0, "reconfig": 0, "software": 0}
    # The dict form stays JSON-serializable (no NaN/inf sneaking in).
    import json

    json.dumps(report.to_dict())
