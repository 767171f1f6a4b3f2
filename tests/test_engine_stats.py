"""Tests for statistics collection."""

import json

import pytest

from repro.engine.stats import StatsGroup


def test_counter_add():
    g = StatsGroup("g")
    g.count("x")
    g.count("x", 4)
    assert g.counters == {"x": 5}


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        StatsGroup("g").count("x", -1)


def test_counter_reset():
    g = StatsGroup("g")
    g.count("x", 9)
    g.reset()
    assert g.counters == {"x": 0}


def test_accumulator_statistics():
    g = StatsGroup("g")
    for v in (1.0, 3.0, 2.0):
        g.record("t", v)
    assert g.accumulators["t"] == [6.0, 3, 1.0, 3.0]
    assert g.get("t") == 6.0


def test_group_creates_on_first_use():
    g = StatsGroup("bus")
    g.count("reads")
    g.count("reads", 2)
    g.record("busy", 10.0)
    assert g.get("reads") == 3
    assert g.get("busy") == 10.0


def test_group_get_missing_returns_zero():
    assert StatsGroup("g").get("nothing") == 0


def test_group_reset_resets_all():
    g = StatsGroup("g")
    g.count("a", 5)
    g.record("b", 2.5)
    g.reset()
    assert g.get("a") == 0
    assert g.get("b") == 0.0
    assert g.accumulators["b"] == [0.0, 0, float("inf"), float("-inf")]


def test_group_as_dict_sorted_members():
    g = StatsGroup("g")
    g.count("zeta")
    g.count("alpha")
    g.record("mid", 1.0)
    assert list(g.as_dict()) == ["alpha", "zeta", "mid"]


def test_record_many_equals_recording_each_sample():
    one_by_one, folded = StatsGroup("g"), StatsGroup("g")
    for v in (4, 9, 2):
        one_by_one.record("busy_ps", v)
    folded.record_many("busy_ps", 15, 3, 2, 9)
    assert folded.state() == one_by_one.state()
    # Sample types are kept: an int extreme stays an int.
    assert folded.accumulators["busy_ps"] == [15.0, 3, 2, 9]


def test_state_is_exact_and_detached():
    g = StatsGroup("g")
    g.count("reads", 2)
    g.record("busy_ps", 7)
    state = g.state()
    assert state == ({"reads": 2}, {"busy_ps": (7.0, 1, 7, 7)})
    g.count("reads")
    g.record("busy_ps", 1)
    assert state == ({"reads": 2}, {"busy_ps": (7.0, 1, 7, 7)})
    assert g.state() == ({"reads": 3}, {"busy_ps": (8.0, 2, 1, 7)})


# -- merge (cross-process aggregation) ---------------------------------------


def test_counter_merge_adds_values():
    a, b = StatsGroup("g"), StatsGroup("g")
    a.count("x", 3)
    b.count("x", 4)
    a.merge(b)
    assert a.counters["x"] == 7
    assert b.counters["x"] == 4  # other side untouched


def test_accumulator_merge_matches_replayed_samples():
    left, right, combined = StatsGroup("g"), StatsGroup("g"), StatsGroup("g")
    for v in (1.0, 5.0):
        left.record("t", v)
        combined.record("t", v)
    for v in (0.5, 2.0, 9.0):
        right.record("t", v)
        combined.record("t", v)
    left.merge(right)
    assert left.state() == combined.state()


def test_accumulator_merge_empty_other_is_noop():
    a, empty = StatsGroup("g"), StatsGroup("g")
    a.record("t", 2.0)
    empty.record_many("t", 0.0, 0, 0.0, 0.0)  # exists but never sampled
    a.merge(empty)
    assert a.accumulators["t"] == [2.0, 1, 2.0, 2.0]


def test_group_merge_member_wise():
    a = StatsGroup("bus")
    a.count("reads", 2)
    a.record("busy", 10.0)
    b = StatsGroup("bus")
    b.count("reads", 3)
    b.count("writes", 1)
    b.record("busy", 4.0)
    b.record("stall", 7.0)
    a.merge(b)
    assert a.get("reads") == 5
    assert a.get("writes") == 1
    assert a.get("busy") == 14.0
    assert a.get("stall") == 7.0
    assert a.accumulators["busy"][2] == 4.0


def test_group_merge_returns_self_for_chaining():
    a = StatsGroup("g")
    assert a.merge(StatsGroup("g")) is a


def test_group_snapshot_round_trip():
    g = StatsGroup("dock")
    g.count("words", 8)
    g.record("beat_ps", 120.0)
    g.record("beat_ps", 80.0)
    g.record_many("empty", 0.0, 0, 0.0, 0.0)  # exists but never sampled
    snap = g.snapshot()
    # The snapshot must be plain JSON (no ±inf for the empty accumulator).
    restored = StatsGroup.from_snapshot(json.loads(json.dumps(snap)))
    assert restored.name == "dock"
    assert restored.state() == g.state()
    assert restored.accumulators["empty"] == [0.0, 0, float("inf"), float("-inf")]


def test_group_snapshot_merge_equals_direct_merge():
    a = StatsGroup("plb")
    a.count("grants", 5)
    a.record("tenure", 3.0)
    b = StatsGroup("plb")
    b.count("grants", 2)
    b.record("tenure", 11.0)
    via_snapshot = StatsGroup.from_snapshot(a.snapshot()).merge(
        StatsGroup.from_snapshot(b.snapshot())
    )
    a.merge(b)
    assert via_snapshot.state() == a.state()
