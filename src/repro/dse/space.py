"""The parameterized platform space: typed axes with legality checking.

A *platform point* is a plain ``{axis-name: int}`` dict assigning one
level to every axis.  The space knows which assignments are legal: cheap
static cross-axis rules first (a DMA burst longer than the FIFO could
never drain), then the real gate — actually building the candidate rig
and running the system DRC over it, so "legal" means exactly "this
platform can be constructed and passes the same design rules as the
paper's systems".  Illegal points are rejected *before* any simulation
is spent on them.

Rig construction is the expensive part of the gate (~tens of host
milliseconds), so verdicts are memoized per distinct rig-axis projection
— the scrub/verify axes never influence buildability and share verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import InvariantError, ReproError
from ..scenarios.dse import BASELINE, build_dse_rig

#: Axes that parameterize the rig itself (the DRC gate's projection);
#: the remaining axes (scrubbing, verify sampling) are operational
#: policy and cannot make a platform unbuildable.
RIG_AXES = (
    "bus_mhz",
    "bridge_cycles",
    "fifo_depth",
    "burst_beats",
    "region_cols",
    "region_rows",
)


@dataclass(frozen=True)
class Axis:
    """One platform knob: discrete levels, bounds implied, plus a baseline."""

    name: str
    levels: Tuple[int, ...]
    baseline: int
    unit: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise InvariantError(f"axis {self.name!r} needs >= 2 levels, got {self.levels!r}")
        if tuple(sorted(set(self.levels))) != self.levels:
            raise InvariantError(
                f"axis {self.name!r} levels must be strictly increasing, got {self.levels!r}"
            )
        if self.baseline not in self.levels:
            raise InvariantError(
                f"axis {self.name!r} baseline {self.baseline} is not a level of {self.levels!r}"
            )


class PlatformSpace:
    """An ordered set of axes plus the legality oracle over their product."""

    def __init__(self, axes: Sequence[Axis]) -> None:
        if len(axes) < 2:
            raise InvariantError(f"a platform space needs >= 2 axes, got {len(axes)}")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise InvariantError(f"duplicate axis names in {names}")
        self.axes: Tuple[Axis, ...] = tuple(axes)
        self._by_name: Dict[str, Axis] = {axis.name: axis for axis in self.axes}
        self._drc_verdicts: Dict[Tuple[Tuple[str, int], ...], Optional[str]] = {}

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    def axis(self, name: str) -> Axis:
        if name not in self._by_name:
            raise InvariantError(f"unknown axis {name!r}; have {sorted(self._by_name)}")
        return self._by_name[name]

    def baseline(self) -> Dict[str, int]:
        """The paper's platform, expressed as a point of this space."""
        return {axis.name: axis.baseline for axis in self.axes}

    def canonical(self, point: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
        """Hashable identity of a point (axis order of the space)."""
        self._check_shape(point)
        return tuple((axis.name, int(point[axis.name])) for axis in self.axes)

    def _check_shape(self, point: Mapping[str, int]) -> None:
        missing = [axis.name for axis in self.axes if axis.name not in point]
        extra = sorted(set(point) - set(self._by_name))
        if missing or extra:
            raise InvariantError(
                f"malformed point: missing axes {missing}, unknown axes {extra}"
            )
        for axis in self.axes:
            value = int(point[axis.name])
            if value not in axis.levels:
                raise InvariantError(
                    f"axis {axis.name!r}: {value} is not one of the levels {axis.levels!r}"
                )

    # -- legality -----------------------------------------------------------
    def static_violation(self, point: Mapping[str, int]) -> Optional[str]:
        """Cross-axis rules checkable without building anything."""
        if "fifo_depth" in self._by_name and "burst_beats" in self._by_name:
            if int(point["fifo_depth"]) < int(point["burst_beats"]):
                return (
                    f"fifo_depth {point['fifo_depth']} < burst_beats "
                    f"{point['burst_beats']}: a full burst could never drain"
                )
        return None

    def _drc_violation(self, point: Mapping[str, int]) -> Optional[str]:
        """Build the candidate rig and run the system DRC over it (memoized)."""
        rig_params = {name: int(point[name]) for name in RIG_AXES if name in self._by_name}
        key = tuple(sorted(rig_params.items()))
        if key in self._drc_verdicts:
            return self._drc_verdicts[key]
        try:
            system, _ = build_dse_rig(**rig_params)
        except ReproError as exc:
            verdict: Optional[str] = f"rig construction failed: {exc}"
        else:
            from ..checks.drc_system import check_system

            report = check_system(system)
            verdict = (
                "; ".join(d.message for d in report.diagnostics) if len(report) else None
            )
        self._drc_verdicts[key] = verdict
        return verdict

    def violation(self, point: Mapping[str, int]) -> Optional[str]:
        """Why ``point`` is illegal, or ``None`` when it is legal.

        Checks shape, static cross-axis rules, then the (memoized) build
        + DRC gate.  Evaluation layers must call this before spending any
        simulation on a candidate.
        """
        self._check_shape(point)
        static = self.static_violation(point)
        if static is not None:
            return static
        return self._drc_violation(point)

    def is_legal(self, point: Mapping[str, int]) -> bool:
        return self.violation(point) is None

    def describe(self) -> List[Dict[str, object]]:
        """JSON-safe description of every axis (for the report)."""
        return [
            {
                "name": axis.name,
                "levels": list(axis.levels),
                "baseline": axis.baseline,
                "unit": axis.unit,
                "description": axis.description,
            }
            for axis in self.axes
        ]

    def size(self) -> int:
        """Cardinality of the full factorial product (legality not applied)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.levels)
        return total


def default_space() -> PlatformSpace:
    """The shipped 8-axis space around the paper's 64-bit platform.

    The six rig-axis baselines are the paper's values
    (:data:`repro.core.system64.PAPER_AXES`).  The baseline rig is not
    the paper's system cell for cell: it places its 32x24 region at the
    first fit, cols 0-31 and rows 0-23 with 25 BRAMs, where the paper's
    system asks for exactly 22 BRAMs and lands on cols 1-32, rows 1-24.
    Levels bracket each knob with realistic alternatives (e.g.
    66/100/133 MHz CoreConnect clocks, power-of-two FIFO cuts, the legal
    region geometries of the XC2VP30 — a 64-bit dock interface needs 17
    CLB rows, so 16-row regions are *intentionally* absent and would
    fail the DRC gate).
    """
    return PlatformSpace(
        [
            Axis("bus_mhz", (66, 100, 133), BASELINE["bus_mhz"], "MHz", "PLB/OPB clock rate"),
            Axis("bridge_cycles", (1, 2, 4), BASELINE["bridge_cycles"], "cycles", "PLB->OPB bridge forward latency"),
            Axis("fifo_depth", (8, 256, 1023, 2047), BASELINE["fifo_depth"], "words", "dock output FIFO depth"),
            Axis("burst_beats", (4, 8, 16), BASELINE["burst_beats"], "beats", "PLB maximum burst length"),
            Axis("region_cols", (24, 32, 40), BASELINE["region_cols"], "CLBs", "dynamic region width"),
            Axis("region_rows", (18, 24), BASELINE["region_rows"], "CLBs", "dynamic region height"),
            Axis("scrub_period_us", (50, 200, 800), 200, "us", "periodic scrub interval"),
            Axis("verify_samples", (4, 16, 64, 256), 16, "frames", "readback verify sample size"),
        ]
    )
