"""Transaction tracing.

A :class:`TraceRecorder` collects timestamped events from instrumented
components (the buses hook in via their ``tracer`` attribute).  Traces can
be filtered, summarised, and exported as CSV or JSON-lines — the usual way
to debug *why* a transfer sequence costs what it costs.

A trace observes the program that runs untraced: a closed-form burst
records one event for all its sub-bursts, and a compiled ``run_steady``
phase records one ``steady`` event per traced bus for the iterations it
extrapolated.  :meth:`TraceRecorder.totals` sums both kinds back into
per-bus request, beat and busy-time totals.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    time_ps: int
    source: str
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"time_ps": self.time_ps, "source": self.source, "kind": self.kind}
        out.update(self.fields)
        return out


class TraceRecorder:
    """Bounded in-memory event recorder."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.enabled = True
        self._events: List[TraceEvent] = []
        self.dropped = 0

    # -- recording ---------------------------------------------------------
    def record(self, time_ps: int, source: str, kind: str, **fields: Any) -> None:
        """Append an event (drops and counts once capacity is reached)."""
        if not self.enabled:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(TraceEvent(time_ps=time_ps, source=source, kind=kind, fields=fields))

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- access ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def filter(
        self,
        source: Optional[str] = None,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events matching all given criteria."""
        out = []
        for event in self._events:
            if source is not None and event.source != source:
                continue
            if kind is not None and event.kind != kind:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def summary(self) -> Dict[str, int]:
        """Event counts per (source, kind)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            key = f"{event.source}:{event.kind}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def totals(self, first: int = 0) -> Dict[str, Dict[str, int]]:
        """Bus work per source: ``reads``, ``writes``, ``beats`` and ``busy_ps``.

        A ``read``/``write`` event stands for its ``requests`` sub-bursts
        (one when the field is absent); a ``steady`` event, which a compiled
        phase records for the iterations it extrapolated, carries its own
        ``reads`` and ``writes``.  Other kinds are not bus work.  ``first``
        skips the events recorded before that index.
        """
        out: Dict[str, Dict[str, int]] = {}
        for event in self._events[first:]:
            fields = event.fields
            if event.kind == "steady":
                reads, writes = fields["reads"], fields["writes"]
            elif event.kind == "read":
                reads, writes = fields.get("requests", 1), 0
            elif event.kind == "write":
                reads, writes = 0, fields.get("requests", 1)
            else:
                continue
            entry = out.setdefault(
                event.source, {"reads": 0, "writes": 0, "beats": 0, "busy_ps": 0}
            )
            entry["reads"] += reads
            entry["writes"] += writes
            entry["beats"] += fields["beats"]
            entry["busy_ps"] += fields["duration_ps"]
        return out

    # -- export -----------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per line."""
        return "\n".join(json.dumps(event.as_dict(), sort_keys=True) for event in self._events)

    def to_csv(self) -> str:
        """CSV with the union of all field names as columns."""
        field_names: List[str] = []
        for event in self._events:
            for name in event.fields:
                if name not in field_names:
                    field_names.append(name)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["time_ps", "source", "kind", *field_names])
        for event in self._events:
            writer.writerow(
                [event.time_ps, event.source, event.kind]
                + [event.fields.get(name, "") for name in field_names]
            )
        return buffer.getvalue()
