"""Tests for the transaction tracer."""

import json

import pytest

from repro.core import memmap
from repro.engine.trace import TraceEvent, TraceRecorder


def test_record_and_len():
    trace = TraceRecorder()
    trace.record(100, "plb", "read", address=0x10)
    trace.record(200, "plb", "write", address=0x14)
    assert len(trace) == 2
    assert trace.events[0].fields["address"] == 0x10


def test_capacity_drops_and_counts():
    trace = TraceRecorder(capacity=2)
    for i in range(5):
        trace.record(i, "x", "k")
    assert len(trace) == 2
    assert trace.dropped == 3


def test_invalid_capacity():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_disable_stops_recording():
    trace = TraceRecorder()
    trace.enabled = False
    trace.record(1, "x", "k")
    assert len(trace) == 0


def test_filter_by_source_kind_predicate():
    trace = TraceRecorder()
    trace.record(1, "plb", "read", address=8)
    trace.record(2, "opb", "read", address=16)
    trace.record(3, "plb", "write", address=8)
    assert len(trace.filter(source="plb")) == 2
    assert len(trace.filter(kind="read")) == 2
    assert len(trace.filter(predicate=lambda e: e.fields["address"] == 8)) == 2
    assert len(trace.filter(source="plb", kind="read")) == 1


def test_summary_counts():
    trace = TraceRecorder()
    trace.record(1, "plb", "read")
    trace.record(2, "plb", "read")
    trace.record(3, "opb", "write")
    assert trace.summary() == {"plb:read": 2, "opb:write": 1}


def test_totals_count_requests_and_steady_events():
    trace = TraceRecorder()
    trace.record(1, "plb", "note")
    trace.record(2, "plb", "read", beats=1, duration_ps=50)
    trace.record(3, "plb", "write", beats=40, duration_ps=300, requests=3)
    trace.record(4, "opb", "read", beats=2, duration_ps=70)
    trace.record(5, "plb", "steady", reads=6, writes=2, beats=8, duration_ps=900)
    assert trace.totals() == {
        "plb": {"reads": 7, "writes": 5, "beats": 49, "busy_ps": 1250},
        "opb": {"reads": 1, "writes": 0, "beats": 2, "busy_ps": 70},
    }
    assert trace.totals(first=3) == {
        "opb": {"reads": 1, "writes": 0, "beats": 2, "busy_ps": 70},
        "plb": {"reads": 6, "writes": 2, "beats": 8, "busy_ps": 900},
    }


def test_jsonl_export_parses():
    trace = TraceRecorder()
    trace.record(5, "plb", "read", address=0x20, beats=4)
    lines = trace.to_jsonl().splitlines()
    parsed = json.loads(lines[0])
    assert parsed["time_ps"] == 5
    assert parsed["beats"] == 4


def test_csv_export_headers_union():
    trace = TraceRecorder()
    trace.record(1, "a", "k", x=1)
    trace.record(2, "b", "k", y=2)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "time_ps,source,kind,x,y"
    assert lines[2].endswith(",2")


def test_clear_resets():
    trace = TraceRecorder(capacity=1)
    trace.record(1, "a", "k")
    trace.record(2, "a", "k")
    trace.clear()
    assert len(trace) == 0
    assert trace.dropped == 0


def test_bus_hook_records_transactions(system32):
    trace = TraceRecorder()
    system32.plb.tracer = trace
    system32.opb.tracer = trace
    system32.cpu.io_write(memmap.STAGE_INPUT, 0x1)
    system32.cpu.io_read(memmap.STAGE_INPUT)
    kinds = {(e.source, e.kind) for e in trace.events}
    assert ("plb32", "write") in kinds
    assert ("opb32", "write") in kinds  # forwarded through the bridge
    assert ("plb32", "read") in kinds
    durations = [e.fields["duration_ps"] for e in trace.events]
    assert all(d > 0 for d in durations)


def test_bus_trace_posted_flag(system64):
    trace = TraceRecorder()
    system64.plb.tracer = trace
    system64.cpu.io_write(memmap.DOCK_BASE, 1)
    writes = trace.filter(kind="write")
    assert writes and writes[-1].fields["posted"]
