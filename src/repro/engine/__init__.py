"""Simulation engine.

Integer-picosecond time base, clock domains, the steady-state phase
compiler, and statistics groups used by every simulated component.  Time
is kept by cursors (``cpu.now_ps``, bus busy watermarks), not an event
queue.
"""

from .batch import declare_phases, declared_phases, phase_declared, run_steady
from .clock import ClockDomain, mhz
from .stats import Accumulator, Counter, StatsGroup
from .time import (
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    PS_PER_US,
    format_time,
    ns_from_ps,
    ps_from_ns,
    ps_from_s,
    ps_from_us,
    s_from_ps,
    us_from_ps,
)

__all__ = [
    "Accumulator",
    "ClockDomain",
    "Counter",
    "PS_PER_MS",
    "PS_PER_NS",
    "PS_PER_S",
    "PS_PER_US",
    "StatsGroup",
    "declare_phases",
    "declared_phases",
    "format_time",
    "phase_declared",
    "run_steady",
    "mhz",
    "ns_from_ps",
    "ps_from_ns",
    "ps_from_s",
    "ps_from_us",
    "s_from_ps",
    "us_from_ps",
]
