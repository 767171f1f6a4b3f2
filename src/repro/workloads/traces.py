"""Request-trace generators for the multi-tenant reconfiguration service.

A *trace* is the columnar input of :mod:`repro.serve`: one structured
NumPy array row per kernel-invocation request, sorted by arrival time.
Columns (see :data:`TRACE_DTYPE`):

* ``arrival_ps``  — absolute arrival time (integer picoseconds);
* ``kernel``      — kernel id, an index into the serve cost table;
* ``size``        — workload size class, an index into the cost table's
  size axis (payload magnitude, not bytes);
* ``deadline_ps`` — absolute deadline (EDF scheduling / miss accounting);
* ``tenant``      — tenant (session) id;
* ``priority``    — tenant class, higher is more urgent.

Three arrival models cover the paper's service regimes: a stationary
Poisson stream, an on/off bursty stream, and a diurnally modulated
stream.  Every generator is fully vectorized and fully seeded — the seed
is threaded from the caller (scenario parameters) per LINT002, and
:func:`derive_trace_seed` derives stable per-field sub-seeds from it so
adding a field never perturbs the others.

Kernel and tenant choices are *sticky* (first-order Markov): real
hash/image services show strong temporal locality, and run length is
exactly the quantity the reconfiguration break-even math amortises over.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import KernelError

#: Columnar request-trace layout (one row per request).
TRACE_DTYPE = np.dtype(
    [
        ("arrival_ps", np.int64),
        ("kernel", np.int16),
        ("size", np.int16),
        ("deadline_ps", np.int64),
        ("tenant", np.int16),
        ("priority", np.int8),
    ]
)

#: Arrival models :func:`make_trace` understands.
ARRIVAL_MODELS = ("poisson", "bursty", "diurnal")


def derive_trace_seed(base: int, label: str) -> int:
    """Stable per-stream sub-seed (SHA-256; process-independent)."""
    digest = hashlib.sha256(f"trace:{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _sticky_ids(count: int, values: int, stickiness: float, rng) -> np.ndarray:
    """A first-order Markov id stream: stay with prob ``stickiness``.

    Vectorized: switch points -> run ids -> one draw per run, repeated.
    """
    if values <= 0:
        raise KernelError("need at least one id value")
    switch = rng.random(count) < (1.0 - stickiness)
    if count:
        switch[0] = True
    run_id = np.cumsum(switch)
    run_id -= 1
    run_values = rng.integers(0, values, size=int(run_id[-1]) + 1 if count else 0)
    return run_values[run_id]


def _size_weights(size_classes: int, skew: float = 0.55) -> np.ndarray:
    """Geometric size-class mix: small requests dominate, long tail."""
    weights = skew ** np.arange(size_classes, dtype=np.float64)
    return weights / weights.sum()


def _assemble(
    gaps: np.ndarray,
    count: int,
    seed: int,
    kernels: int,
    tenants: int,
    size_classes: int,
    stickiness: float,
    deadline_slack_ps: Sequence[int],
    priority_levels: int,
) -> np.ndarray:
    """Common tail: turn a float gap vector into a finished trace.

    Works in place: ``gaps`` (the caller's scratch vector) becomes the
    rounded arrival times, and each column is written straight into the
    trace, so a million-request trace never holds a second copy of one.
    """
    lo, hi = int(deadline_slack_ps[0]), int(deadline_slack_ps[1])
    if lo <= 0 or hi <= lo:
        raise KernelError("deadline_slack_ps must be an increasing positive pair")
    np.maximum(gaps, 1.0, out=gaps)
    np.cumsum(gaps, out=gaps)
    np.rint(gaps, out=gaps)
    kernel_rng = np.random.default_rng(derive_trace_seed(seed, "kernel"))
    tenant_rng = np.random.default_rng(derive_trace_seed(seed, "tenant"))
    size_rng = np.random.default_rng(derive_trace_seed(seed, "size"))
    slack_rng = np.random.default_rng(derive_trace_seed(seed, "deadline"))
    trace = np.zeros(count, dtype=TRACE_DTYPE)
    trace["arrival_ps"] = gaps
    trace["kernel"] = _sticky_ids(count, kernels, stickiness, kernel_rng)
    trace["tenant"] = _sticky_ids(count, tenants, stickiness, tenant_rng)
    trace["priority"] = trace["tenant"] % priority_levels
    trace["size"] = size_rng.choice(
        size_classes, size=count, p=_size_weights(size_classes)
    )
    deadline = trace["deadline_ps"]
    deadline[:] = slack_rng.integers(lo, hi, size=count, dtype=np.int64)
    deadline += trace["arrival_ps"]
    return trace


def poisson_trace(
    count: int,
    mean_gap_ps: int,
    seed: int,
    kernels: int = 4,
    tenants: int = 8,
    size_classes: int = 3,
    stickiness: float = 0.9,
    deadline_slack_ps: Sequence[int] = (20_000_000_000, 200_000_000_000),
    priority_levels: int = 4,
) -> np.ndarray:
    """Stationary Poisson arrivals with mean inter-arrival ``mean_gap_ps``."""
    if count <= 0:
        raise KernelError("trace must contain at least one request")
    if mean_gap_ps <= 0:
        raise KernelError("mean_gap_ps must be positive")
    rng = np.random.default_rng(derive_trace_seed(seed, "poisson-gaps"))
    gaps = rng.exponential(float(mean_gap_ps), size=count)
    return _assemble(
        gaps, count, seed, kernels, tenants, size_classes, stickiness,
        deadline_slack_ps, priority_levels,
    )


def bursty_trace(
    count: int,
    mean_gap_ps: int,
    seed: int,
    burst_len: int = 64,
    idle_factor: float = 20.0,
    kernels: int = 4,
    tenants: int = 8,
    size_classes: int = 3,
    stickiness: float = 0.9,
    deadline_slack_ps: Sequence[int] = (20_000_000_000, 200_000_000_000),
    priority_levels: int = 4,
) -> np.ndarray:
    """On/off arrivals: dense bursts separated by long idle gaps.

    Bursts have geometric length (mean ``burst_len``); within a burst the
    stream runs ``idle_factor`` times faster than the stationary rate and
    each burst opens with one idle gap that restores the overall mean.
    """
    if count <= 0:
        raise KernelError("trace must contain at least one request")
    if mean_gap_ps <= 0:
        raise KernelError("mean_gap_ps must be positive")
    if burst_len <= 0 or idle_factor <= 1.0:
        raise KernelError("burst_len must be positive and idle_factor > 1")
    rng = np.random.default_rng(derive_trace_seed(seed, "bursty-gaps"))
    start_rng = np.random.default_rng(derive_trace_seed(seed, "bursty-starts"))
    dense = rng.exponential(float(mean_gap_ps) / idle_factor, size=count)
    starts = start_rng.random(count) < (1.0 / burst_len)
    if count:
        starts[0] = True
    # One long off-gap per burst keeps the long-run rate near the mean.
    # Added in place so the idle draw is the only extra full-length vector.
    idle_mean = float(mean_gap_ps) * burst_len * (1.0 - 1.0 / idle_factor)
    np.add(dense, rng.exponential(idle_mean, size=count), out=dense, where=starts)
    return _assemble(
        dense, count, seed, kernels, tenants, size_classes, stickiness,
        deadline_slack_ps, priority_levels,
    )


def _diurnal_load(count: int, cycles: float, depth: float) -> np.ndarray:
    """``1 + depth*sin(2*pi*cycles*i/count)`` per request, built in one
    vector.  The operation order is fixed: the pinned trace digests
    depend on every rounding step."""
    load = np.arange(count, dtype=np.float64)
    load *= 2.0 * np.pi * cycles
    load /= max(1, count)
    np.sin(load, out=load)
    load *= depth
    load += 1.0
    return load


def diurnal_trace(
    count: int,
    mean_gap_ps: int,
    seed: int,
    cycles: float = 4.0,
    depth: float = 0.8,
    kernels: int = 4,
    tenants: int = 8,
    size_classes: int = 3,
    stickiness: float = 0.9,
    deadline_slack_ps: Sequence[int] = (20_000_000_000, 200_000_000_000),
    priority_levels: int = 4,
) -> np.ndarray:
    """Sinusoidally modulated arrivals: ``cycles`` load waves over the trace.

    ``depth`` in [0, 1) scales the swing between peak and trough rate.
    """
    if count <= 0:
        raise KernelError("trace must contain at least one request")
    if mean_gap_ps <= 0:
        raise KernelError("mean_gap_ps must be positive")
    if not 0.0 <= depth < 1.0:
        raise KernelError("depth must be in [0, 1)")
    rng = np.random.default_rng(derive_trace_seed(seed, "diurnal-gaps"))
    gaps = rng.exponential(float(mean_gap_ps), size=count)
    gaps *= _diurnal_load(count, cycles, depth)
    return _assemble(
        gaps, count, seed, kernels, tenants, size_classes, stickiness,
        deadline_slack_ps, priority_levels,
    )


def make_trace(model: str, count: int, mean_gap_ps: int, seed: int,
               **kwargs) -> np.ndarray:
    """Dispatch on the arrival-model name (static, cache-key friendly)."""
    if model == "poisson":
        return poisson_trace(count, mean_gap_ps, seed, **kwargs)
    if model == "bursty":
        return bursty_trace(count, mean_gap_ps, seed, **kwargs)
    if model == "diurnal":
        return diurnal_trace(count, mean_gap_ps, seed, **kwargs)
    raise KernelError(f"unknown arrival model {model!r}; known: {ARRIVAL_MODELS}")


def validate_trace(trace: np.ndarray, kernels: Optional[int] = None) -> None:
    """Raise :class:`~repro.errors.KernelError` unless ``trace`` is well-formed."""
    if trace.dtype != TRACE_DTYPE:
        raise KernelError(f"trace dtype {trace.dtype} != TRACE_DTYPE")
    if trace.size == 0:
        raise KernelError("trace is empty")
    arrivals = trace["arrival_ps"]
    if np.any(np.diff(arrivals) < 0):
        raise KernelError("trace arrivals must be sorted non-decreasing")
    if np.any(arrivals < 0):
        raise KernelError("trace arrivals must be non-negative")
    if np.any(trace["deadline_ps"] <= arrivals):
        raise KernelError("every deadline must fall after its arrival")
    if np.any(trace["size"] < 0):
        raise KernelError("size classes must be non-negative")
    if kernels is not None and (
        np.any(trace["kernel"] < 0) or np.any(trace["kernel"] >= kernels)
    ):
        raise KernelError(f"kernel ids must lie in [0, {kernels})")


def trace_summary(trace: np.ndarray) -> Dict[str, object]:
    """Small descriptive dict (used by the CLI and reports)."""
    arrivals = trace["arrival_ps"]
    span = int(arrivals[-1] - arrivals[0]) if trace.size > 1 else 0
    return {
        "requests": int(trace.size),
        "span_ps": span,
        "mean_gap_ps": int(span // max(1, trace.size - 1)),
        "kernels": int(trace["kernel"].max()) + 1,
        "tenants": int(trace["tenant"].max()) + 1,
        "size_classes": int(trace["size"].max()) + 1,
    }
