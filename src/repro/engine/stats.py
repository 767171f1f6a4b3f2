"""Statistics collection for simulation components.

Every bus, CPU and peripheral keeps a :class:`StatsGroup` of named counters
and accumulators.  The benchmark harness reads these to report utilisation
and per-operation averages next to simulated wall-clock times.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

_INF = float("inf")


def _empty() -> List[float]:
    """A fresh accumulator: ``[total, count, min, max]``."""
    return [0.0, 0, _INF, -_INF]


class StatsGroup:
    """A named collection of counters and accumulators, kept as plain values.

    :attr:`counters` maps a name to an int event count.
    :attr:`accumulators` maps a name to ``[total, count, min, max]`` of a
    sampled quantity (``count`` 0 with ±inf extremes when never sampled).
    Members are created on first use, so instrumentation sites can simply
    call ``stats.count("reads")`` without declaring anything up front.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, int] = {}
        self.accumulators: Dict[str, List[float]] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (never negative)."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot be decremented")
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def record(self, name: str, amount: float) -> None:
        """Add a sample to accumulator ``name``."""
        acc = self.accumulators.get(name)
        if acc is None:
            acc = self.accumulators[name] = _empty()
        acc[0] += amount
        acc[1] += 1
        if amount < acc[2]:
            acc[2] = amount
        if amount > acc[3]:
            acc[3] = amount

    def count_many(self, increments: Dict[str, int]) -> None:
        """Apply several counter increments at once (``{name: amount}``)."""
        for name, amount in increments.items():
            self.count(name, amount)

    def record_many(
        self, name: str, total: float, count: int, minimum: float, maximum: float
    ) -> None:
        """Fold ``count`` pre-aggregated samples into accumulator ``name``.

        Aggregate-equivalent to ``count`` :meth:`record` calls whose sum,
        minimum and maximum are the given values; the burst fast paths use
        it to keep statistics identical to the per-beat path without
        per-beat Python calls.
        """
        if count < 0:
            raise ValueError(f"accumulator {name!r} cannot fold {count} samples")
        acc = self.accumulators.get(name)
        if acc is None:
            acc = self.accumulators[name] = _empty()
        if count == 0:
            return
        acc[0] += total
        acc[1] += count
        if minimum < acc[2]:
            acc[2] = minimum
        if maximum > acc[3]:
            acc[3] = maximum

    def merge(self, other: "StatsGroup") -> "StatsGroup":
        """Fold another group's members into this one (member-wise merge).

        Equivalent to replaying every event and sample the other group
        saw.  Members missing on either side are created on demand, so
        merging a group gathered in a worker process into a fresh
        parent-side group reproduces exactly the statistics the worker
        collected.  Group names need not match — a sweep aggregates
        same-named component groups from many independently built systems.
        """
        for name, value in other.counters.items():
            self.count(name, value)
        for name, (total, count, minimum, maximum) in other.accumulators.items():
            self.record_many(name, total, count, minimum, maximum)
        return self

    def state(self) -> Tuple[Dict[str, int], Dict[str, Tuple[float, int, float, float]]]:
        """Every member exactly, as fresh containers: ``(counters,
        accumulators)`` with each accumulator a ``(total, count, min, max)``
        tuple.  Two groups with equal states hold the same statistics."""
        return (
            dict(self.counters),
            {name: tuple(acc) for name, acc in self.accumulators.items()},
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe structural snapshot (for cross-process transport).

        Min/max are omitted for empty accumulators (they are ±inf, which
        plain JSON cannot carry); :meth:`from_snapshot` restores them.
        """
        counters = dict(sorted(self.counters.items()))
        accumulators: Dict[str, Dict[str, float]] = {}
        for name, (total, count, minimum, maximum) in sorted(self.accumulators.items()):
            entry: Dict[str, float] = {"total": total, "count": count}
            if count:
                entry["min"] = minimum
                entry["max"] = maximum
            accumulators[name] = entry
        return {"name": self.name, "counters": counters, "accumulators": accumulators}

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "StatsGroup":
        """Rebuild a group from :meth:`snapshot` output."""
        group = cls(str(data.get("name", "snapshot")))
        for name, value in dict(data.get("counters", {})).items():
            group.count(name, int(value))
        for name, entry in dict(data.get("accumulators", {})).items():
            group.record_many(
                name,
                float(entry.get("total", 0.0)),
                int(entry.get("count", 0)),
                float(entry.get("min", _INF)),
                float(entry.get("max", -_INF)),
            )
        return group

    def get(self, name: str) -> float:
        """Read a counter (or accumulator total) by name; 0 if absent."""
        if name in self.counters:
            return self.counters[name]
        if name in self.accumulators:
            return self.accumulators[name][0]
        return 0

    def reset(self) -> None:
        """Reset every member to zero."""
        for name in self.counters:
            self.counters[name] = 0
        for name in self.accumulators:
            self.accumulators[name] = _empty()

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(name, value)`` over counters then accumulator totals."""
        yield from sorted(self.counters.items())
        for name, acc in sorted(self.accumulators.items()):
            yield name, acc[0]

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all members as a plain dict."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StatsGroup {self.name} {self.as_dict()}>"
