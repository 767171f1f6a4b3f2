"""Seeded arrival-trace generators (repro.workloads.traces)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.workloads.traces import (
    ARRIVAL_MODELS,
    TRACE_DTYPE,
    bursty_trace,
    derive_trace_seed,
    diurnal_trace,
    make_trace,
    poisson_trace,
    trace_summary,
    validate_trace,
)


def test_dtype_and_shape():
    trace = poisson_trace(500, 1_000_000, seed=7)
    assert trace.dtype == TRACE_DTYPE
    assert trace.shape == (500,)
    validate_trace(trace)


def test_arrivals_strictly_increasing():
    for model in ARRIVAL_MODELS:
        trace = make_trace(model, 2_000, 500_000, seed=3)
        arrivals = trace["arrival_ps"]
        assert np.all(np.diff(arrivals) >= 1), model
        assert arrivals[0] >= 1


def test_deadlines_after_arrivals():
    trace = poisson_trace(1_000, 1_000_000, seed=5)
    assert np.all(trace["deadline_ps"] > trace["arrival_ps"])


def test_field_ranges():
    trace = poisson_trace(
        2_000, 1_000_000, seed=9, kernels=4, tenants=8, size_classes=3,
        priority_levels=4,
    )
    assert trace["kernel"].min() >= 0 and trace["kernel"].max() < 4
    assert trace["tenant"].min() >= 0 and trace["tenant"].max() < 8
    assert trace["size"].min() >= 0 and trace["size"].max() < 3
    assert trace["priority"].min() >= 0 and trace["priority"].max() < 4


def test_same_seed_is_bit_identical():
    a = poisson_trace(3_000, 750_000, seed=11)
    b = poisson_trace(3_000, 750_000, seed=11)
    assert np.array_equal(a, b)


#: SHA-256 of ``make_trace(model, 50_000, 3_000_000, 2006).tobytes()``,
#: recorded before the assembly was rewritten to work in place: any change
#: to a generator's arithmetic or RNG draws shows up here.
PINNED_TRACE_SHA256 = {
    "poisson": "f4e27344f98ba09a98930694e3515399542d13b55e982df34a270a0ff0986f11",
    "bursty": "461720998f5f70fd3e58e8cd763e18e6c496ea5343de8c595ab910369265867d",
    "diurnal": "20f5168b4e90bc3f0ed6b7639af4a7d7e25ca54ebd293a89fd78f2ae2bd45bc7",
}


@pytest.mark.parametrize("model", ARRIVAL_MODELS)
def test_trace_bytes_match_pinned_digest(model):
    trace = make_trace(model, 50_000, 3_000_000, 2006)
    assert hashlib.sha256(trace.tobytes()).hexdigest() == PINNED_TRACE_SHA256[model]


def test_different_seeds_differ():
    a = poisson_trace(3_000, 750_000, seed=11)
    b = poisson_trace(3_000, 750_000, seed=12)
    assert not np.array_equal(a, b)


def test_models_differ_at_same_seed():
    traces = {m: make_trace(m, 2_000, 500_000, seed=4) for m in ARRIVAL_MODELS}
    arr = [traces[m]["arrival_ps"] for m in ARRIVAL_MODELS]
    assert not np.array_equal(arr[0], arr[1])
    assert not np.array_equal(arr[0], arr[2])


def test_burstiness_increases_gap_variance():
    smooth = poisson_trace(20_000, 1_000_000, seed=6)
    bursty = bursty_trace(20_000, 1_000_000, seed=6)
    cv = lambda t: np.diff(t["arrival_ps"]).std() / np.diff(t["arrival_ps"]).mean()  # noqa: E731
    assert cv(bursty) > cv(smooth)


def test_diurnal_mean_gap_tracks_requested_mean():
    trace = diurnal_trace(50_000, 2_000_000, seed=8)
    mean_gap = np.diff(trace["arrival_ps"]).mean()
    assert 0.5 * 2_000_000 < mean_gap < 1.5 * 2_000_000


def test_sticky_kernels_form_runs():
    sticky = poisson_trace(10_000, 1_000_000, seed=2, stickiness=0.95)
    loose = poisson_trace(10_000, 1_000_000, seed=2, stickiness=0.0)
    switches = lambda t: int(np.count_nonzero(np.diff(t["kernel"]) != 0))  # noqa: E731
    assert switches(sticky) < switches(loose)


def test_derive_trace_seed_is_stable_and_label_sensitive():
    assert derive_trace_seed(7, "a") == derive_trace_seed(7, "a")
    assert derive_trace_seed(7, "a") != derive_trace_seed(7, "b")
    assert derive_trace_seed(7, "a") != derive_trace_seed(8, "a")


def test_unknown_model_rejected():
    with pytest.raises(KernelError):
        make_trace("fractal", 100, 1_000_000, seed=1)


def test_nonpositive_count_rejected():
    with pytest.raises(KernelError):
        poisson_trace(0, 1_000_000, seed=1)
    with pytest.raises(KernelError):
        poisson_trace(-5, 1_000_000, seed=1)


def test_nonpositive_gap_rejected():
    with pytest.raises(KernelError):
        poisson_trace(100, 0, seed=1)


def test_validate_rejects_unsorted():
    trace = poisson_trace(100, 1_000_000, seed=1)
    trace["arrival_ps"][10] = trace["arrival_ps"][50]
    with pytest.raises(KernelError):
        validate_trace(trace)


def test_validate_rejects_kernel_out_of_range():
    trace = poisson_trace(100, 1_000_000, seed=1, kernels=4)
    with pytest.raises(KernelError):
        validate_trace(trace, kernels=2)


def test_trace_summary_fields():
    trace = poisson_trace(1_000, 1_000_000, seed=1)
    summary = trace_summary(trace)
    assert summary["requests"] == 1_000
    assert summary["span_ps"] > 0
    assert summary["mean_gap_ps"] > 0


@settings(max_examples=20, deadline=None)
@given(
    model=st.sampled_from(list(ARRIVAL_MODELS)),
    count=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_model_always_yields_a_valid_trace(model, count, seed):
    trace = make_trace(model, count, 250_000, seed)
    validate_trace(trace, kernels=4)
    assert trace.shape == (count,)
