"""Tests for the tag-only cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import Cache
from repro.errors import SimulationError

from .oracles import cache as oracle


@pytest.fixture
def cache():
    return Cache(size_bytes=1024, line_bytes=32, ways=2)  # 16 sets


def test_geometry_must_divide():
    with pytest.raises(SimulationError):
        Cache(size_bytes=1000, line_bytes=32, ways=2)


def test_cold_miss_then_hit(cache):
    hit, evicted = cache.access(0x100)
    assert not hit and evicted is None
    hit, _ = cache.access(0x104)  # same line
    assert hit


def test_line_base(cache):
    assert cache.line_base(0x47) == 0x40


def test_two_way_associativity(cache):
    # Three lines mapping to the same set: third access evicts the LRU.
    stride = cache.set_count * cache.line_bytes
    cache.access(0)
    cache.access(stride)
    cache.access(2 * stride)
    assert not cache.contains(0)
    assert cache.contains(stride)
    assert cache.contains(2 * stride)


def test_lru_updated_on_hit(cache):
    stride = cache.set_count * cache.line_bytes
    cache.access(0)
    cache.access(stride)
    cache.access(0)  # refresh line 0
    cache.access(2 * stride)  # evicts stride, not 0
    assert cache.contains(0)
    assert not cache.contains(stride)


def test_dirty_eviction_returns_address(cache):
    stride = cache.set_count * cache.line_bytes
    cache.access(0, write=True)
    cache.access(stride)
    _, evicted = cache.access(2 * stride)
    assert evicted == 0


def test_clean_eviction_returns_none(cache):
    stride = cache.set_count * cache.line_bytes
    cache.access(0)
    cache.access(stride)
    _, evicted = cache.access(2 * stride)
    assert evicted is None


def test_invalidate_clears_everything(cache):
    cache.access(0, write=True)
    cache.invalidate()
    assert not cache.contains(0)
    assert cache.dirty_line_count() == 0


def test_stats_track_hits_misses(cache):
    cache.access(0)
    cache.access(0)
    assert cache.stats.get("misses") == 1
    assert cache.stats.get("hits") == 1


def test_stream_cold_misses_every_line(cache):
    misses, evictions = cache.stream(0, 10 * cache.line_bytes)
    assert misses == 10
    assert evictions == 0


def test_stream_partial_line_counts_whole_line(cache):
    misses, _ = cache.stream(8, 8)  # inside one line
    assert misses == 1


def test_stream_resident_rescan_hits(cache):
    cache.stream(0, 8 * cache.line_bytes)
    misses, _ = cache.stream(0, 8 * cache.line_bytes)
    assert misses == 0


def test_stream_write_longer_than_cache_evicts_dirty(cache):
    capacity = cache.size_bytes
    misses, evictions = cache.stream(0, 4 * capacity, write=True)
    assert misses == 4 * capacity // cache.line_bytes
    assert evictions > 0


def test_stream_zero_bytes(cache):
    assert cache.stream(0, 0) == (0, 0)


def test_stream_leaves_tail_resident(cache):
    cache.stream(0, 4 * cache.size_bytes)
    tail_line = 4 * cache.size_bytes - cache.line_bytes
    assert cache.contains(tail_line)
    assert not cache.contains(0)


# -- closed-form stream vs the line-at-a-time oracle --------------------------

#: ``(size_bytes, line_bytes, ways)``: the PPC405's 16 KB 2-way caches plus
#: small direct-mapped, 2-way and 4-way ones that wrap sooner.
GEOMETRIES = [(16 * 1024, 32, 2), (256, 16, 1), (512, 32, 2), (1024, 32, 4)]
#: The staged system64 bitstream: 213,809 words.
STAGED_STREAM_BYTES = 213_809 * 4


@st.composite
def cache_programs(draw):
    size, line, ways = draw(st.sampled_from(GEOMETRIES))
    sets = size // (line * ways)
    # Anywhere in four cache sizes, or in a few sets holding ways + 2 tags
    # each, so that hits land on every LRU position.
    address = st.one_of(
        st.integers(0, 4 * size),
        st.builds(
            lambda tag, index, offset: (tag * sets + index) * line + offset,
            st.integers(0, ways + 1), st.integers(0, min(sets, 2) - 1), st.integers(0, line - 1),
        ),
    )
    write = st.booleans()
    op = st.one_of(
        st.tuples(st.just("access"), address, write),
        st.tuples(
            st.just("stream"),
            address,
            st.one_of(st.integers(0, 2 * size + 3 * line), st.just(STAGED_STREAM_BYTES)),
            write,
        ),
        st.tuples(st.just("invalidate")),
    )
    return (size, line, ways), draw(st.lists(op, max_size=24))


def _state(cache):
    counters = [(name, counter.value) for name, counter in cache.stats._counters.items()]
    return cache._tags.tolist(), cache._dirty.tolist(), counters


@settings(derandomize=True, max_examples=150, deadline=None)
@given(program=cache_programs())
def test_stream_matches_the_line_at_a_time_oracle(program):
    """Return values, tags, LRU order, dirty bits, counter values and the
    order counters were created in agree after every step."""
    geometry, ops = program
    shipped, reference = Cache(*(("dcache",) + geometry)), Cache(*(("dcache",) + geometry))
    for op in ops:
        if op[0] == "stream":
            got = shipped.stream(*op[1:])
            expected = oracle.stream(reference, *op[1:])
        elif op[0] == "access":
            got = shipped.access(*op[1:])
            expected = reference.access(*op[1:])
        else:
            got, expected = shipped.invalidate(), reference.invalidate()
        assert got == expected
        assert _state(shipped) == _state(reference)


@pytest.mark.parametrize("position", range(4))
def test_a_hit_moves_only_its_way_to_the_front(position):
    cache = Cache(size_bytes=1024, line_bytes=32, ways=4)  # 8 sets
    stride = cache.set_count * cache.line_bytes
    for tag in range(4):
        cache.access(tag * stride, write=tag == 1)
    order = [3, 2, 1, 0]
    tag = order[position]
    assert cache.access(tag * stride) == (True, None)
    assert cache._tags[0].tolist() == [tag] + [t for t in order if t != tag]
    assert cache._dirty[0].tolist() == [t == 1 for t in cache._tags[0].tolist()]
    # A sweep over that set's line references it the same way.
    cache.stream(order[-1] * stride, 1)
    assert cache._tags[0].tolist()[0] == order[-1]
    assert sorted(cache._tags[0].tolist()) == [0, 1, 2, 3]


def test_staged_stream_creates_counters_as_the_oracle_does():
    shipped, reference = Cache(), Cache()
    reference.stats.count("invalidates")
    shipped.stats.count("invalidates")
    assert shipped.stream(0x40, STAGED_STREAM_BYTES) == oracle.stream(
        reference, 0x40, STAGED_STREAM_BYTES
    )
    assert list(shipped.stats._counters) == [
        "invalidates", "hits", "misses", "dirty_evictions", "stream_bytes"
    ]
    assert _state(shipped) == _state(reference)
    assert shipped.stats.get("hits") == 0


def test_stream_state_is_tags_and_dirty_arrays(cache):
    cache.stream(0, 3 * cache.line_bytes, write=True)
    assert cache._tags.shape == cache._dirty.shape == (cache.set_count, cache.ways)
    assert cache._tags[:3, 0].tolist() == [0, 0, 0]
    assert (cache._tags[3:] == -1).all() and (cache._tags[:, 1] == -1).all()
    assert np.count_nonzero(cache._dirty) == cache.dirty_line_count() == 3
