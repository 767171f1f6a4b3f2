"""The typed result every registered scenario returns.

A :class:`ScenarioResult` is the *entire* observable outcome of one
scenario run: the paper-style table (title/headers/rows), the headline
simulated numbers the pytest wrappers assert on, aggregate
:class:`~repro.engine.stats.StatsGroup` snapshots, and optional rendered
text (the figure scenarios).  Everything is canonicalised to plain JSON
types on construction, so a result that travelled through the sweep
cache or a worker process compares equal to one produced in-process —
the property the parallel-vs-serial equality tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engine.stats import StatsGroup
from ..errors import CheckError
from ..reporting import format_table

#: Bumped when the serialised layout changes; part of the cache key.
RESULT_SCHEMA = 1


def _canon(value):
    """Coerce a cell/headline value to a plain JSON-stable Python type."""
    # NumPy scalars slip into rows via means and ratios; unwrap them so
    # JSON round-trips (and cross-process transport) are value-identical.
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            value = value.item()
        except Exception:  # repro: noqa LINT007 (non-scalar .item: keep original value)
            pass
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    return str(value)


@dataclass
class ScenarioResult:
    """Typed outcome of one scenario run (tables, headlines, stats)."""

    name: str
    title: str = ""
    headers: List[str] = field(default_factory=list)
    rows: List[List[object]] = field(default_factory=list)
    #: Named simulated quantities the wrapping tests assert on
    #: (e.g. ``{"pio_write_ns": 812.5}``).  Values are scalars or strings.
    headline: Dict[str, object] = field(default_factory=dict)
    #: ``StatsGroup.snapshot()`` dicts keyed by group name.
    stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Pre-rendered artifact text (figure scenarios); tables render lazily.
    text: Optional[str] = None
    #: Extra prose appended after the table (e.g. a comparison summary).
    appendix: Optional[str] = None

    def __post_init__(self) -> None:
        self.headers = [str(h) for h in self.headers]
        self.rows = [[_canon(cell) for cell in row] for row in self.rows]
        self.headline = {str(k): _canon(v) for k, v in self.headline.items()}
        self.stats = {str(k): _canon(v) for k, v in self.stats.items()}

    # -- rendering ---------------------------------------------------------
    def table_text(self) -> str:
        """The paper-style ASCII table (or the pre-rendered artifact)."""
        if self.text is not None:
            body = self.text
        else:
            body = format_table(self.title, self.headers, self.rows)
        if self.appendix:
            body = body + "\n\n" + self.appendix
        return body

    # -- transport ---------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": RESULT_SCHEMA,
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "headline": dict(self.headline),
            "stats": dict(self.stats),
        }
        if self.text is not None:
            data["text"] = self.text
        if self.appendix is not None:
            data["appendix"] = self.appendix
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioResult":
        if data.get("schema") != RESULT_SCHEMA:
            raise CheckError(
                f"scenario result schema {data.get('schema')!r} != {RESULT_SCHEMA}"
            )
        return cls(
            name=str(data["name"]),
            title=str(data.get("title", "")),
            headers=list(data.get("headers", [])),
            rows=[list(row) for row in data.get("rows", [])],
            headline=dict(data.get("headline", {})),
            stats=dict(data.get("stats", {})),
            text=data.get("text"),
            appendix=data.get("appendix"),
        )

    def merged_stats(self) -> Dict[str, StatsGroup]:
        """Rebuild live :class:`StatsGroup` objects from the snapshots."""
        return {
            name: StatsGroup.from_snapshot(snap) for name, snap in self.stats.items()
        }


def snapshot_groups(*groups: StatsGroup) -> Dict[str, Dict[str, object]]:
    """Snapshot several stats groups into the ``ScenarioResult.stats`` shape."""
    return {group.name: group.snapshot() for group in groups}


def system_stats(system) -> Dict[str, Dict[str, object]]:
    """Snapshot the bus-level stats of a built system (both buses)."""
    groups = []
    for attr in ("plb", "opb"):
        bus = getattr(system, attr, None)
        if bus is not None and hasattr(bus, "stats"):
            groups.append(bus.stats)
    return snapshot_groups(*groups)


def require(condition: bool, message: str) -> None:
    """Scenario-internal equivalence check.

    Scenario bodies live in library code, where bare ``assert`` is banned
    (LINT003) — they vanish under ``python -O``.  Failed checks raise
    :class:`~repro.errors.CheckError`, which the orchestrator reports as a
    failed scenario rather than a crashed worker.
    """
    if not condition:
        raise CheckError(message)
