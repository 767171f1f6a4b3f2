"""Run-level utilization and bottleneck analysis.

Wraps a workload execution with bus tracing, then reports how busy each
bus was, where the time went (bus occupancy vs CPU-only time) and which
resource the run was bound by — the view a designer needs before deciding
whether faster kernels, wider transfers, or a different transfer method
would help.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from ..core.system import System
from ..engine.trace import TraceRecorder


@dataclass
class BusUtilization:
    """Occupancy of one bus over an analysed window."""

    name: str
    busy_ps: int
    transactions: int
    window_ps: int

    @property
    def occupancy(self) -> float:
        return self.busy_ps / self.window_ps if self.window_ps else 0.0

    @property
    def mean_transaction_ps(self) -> float:
        return self.busy_ps / self.transactions if self.transactions else 0.0


@dataclass
class UtilizationReport:
    """Outcome of :func:`profile_run`."""

    window_ps: int
    buses: Dict[str, BusUtilization] = field(default_factory=dict)
    result: object = None

    @property
    def bottleneck(self) -> str:
        """The bus with the highest occupancy, or 'cpu' when all are idle-ish.

        A run whose busiest bus is under 50% occupied is spending most of
        its time in the CPU pipeline, not waiting on interconnect.
        """
        if not self.buses:
            return "cpu"
        busiest = max(self.buses.values(), key=lambda b: b.occupancy)
        return busiest.name if busiest.occupancy >= 0.5 else "cpu"

    def summary_lines(self) -> list[str]:
        lines = [f"analysed window: {self.window_ps / 1e6:.1f} us"]
        for bus in self.buses.values():
            lines.append(
                f"  {bus.name:8s} {100 * bus.occupancy:5.1f}% busy, "
                f"{bus.transactions} transactions, "
                f"mean {bus.mean_transaction_ps / 1000:.0f} ns"
            )
        lines.append(f"bottleneck: {self.bottleneck}")
        return lines


def profile_run(system: System, workload: Callable[[], object]) -> UtilizationReport:
    """Run ``workload`` with bus tracing and compute per-bus occupancy.

    ``workload`` is a zero-argument callable performing simulated work on
    ``system`` (its return value is attached to the report).  Existing
    tracers are preserved and restored.

    Note: the CPU's calibrate-and-multiply shortcuts (``io_read_batch``,
    ``io_write_batch``, ``charge_stream_*``, the probe of
    ``pio_interleaved_sequence`` and the RDATA drain of a frame readback)
    charge bus counters without issuing requests, so no trace sees them.
    """
    recorder = TraceRecorder(capacity=500_000)
    saved = (system.plb.tracer, system.opb.tracer)
    system.plb.tracer = recorder
    system.opb.tracer = recorder
    start = system.cpu.now_ps
    try:
        result = workload()
    finally:
        system.plb.tracer, system.opb.tracer = saved
    window = max(1, system.cpu.now_ps - start)

    buses = {
        name: BusUtilization(
            name=name,
            busy_ps=totals["busy_ps"],
            transactions=totals["reads"] + totals["writes"],
            window_ps=window,
        )
        for name, totals in recorder.totals().items()
    }
    return UtilizationReport(window_ps=window, buses=buses, result=result)
