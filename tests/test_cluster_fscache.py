"""Tests for the set-associative filesystem cache."""

import pytest

from repro.cluster.fscache import SetAssociativeCache


def make_cache(**kw):
    defaults = dict(capacity_bytes=64 * 4096, line_bytes=4096, ways=4)
    defaults.update(kw)
    return SetAssociativeCache(**defaults)


def test_miss_then_hit():
    c = make_cache()
    assert not c.lookup_line(("f", 0))
    c.insert_line(("f", 0))
    assert c.lookup_line(("f", 0))
    assert c.hits == 1 and c.misses == 1


def test_distinct_streams_do_not_collide_logically():
    c = make_cache()
    c.insert_line(("a", 0))
    assert not c.contains_line(("b", 0))


def test_lru_within_set():
    c = SetAssociativeCache(capacity_bytes=4 * 64, line_bytes=64, ways=4)
    assert c.n_sets == 1
    for i in range(4):
        c.insert_line(i)
    c.lookup_line(0)  # refresh 0
    c.insert_line(99)  # evicts LRU = 1
    assert c.contains_line(0)
    assert not c.contains_line(1)


def test_insert_existing_refreshes():
    c = SetAssociativeCache(capacity_bytes=2 * 64, line_bytes=64, ways=2)
    c.insert_line("a")
    c.insert_line("b")
    c.insert_line("a")  # refresh, not duplicate
    c.insert_line("c")  # evicts b
    assert c.contains_line("a")
    assert not c.contains_line("b")


def test_hit_rate_and_reset():
    c = make_cache()
    c.insert_line(1)
    c.lookup_line(1)
    c.lookup_line(2)
    assert c.hit_rate == pytest.approx(0.5)
    c.reset_counters()
    assert c.hit_rate == 0.0


def test_clear():
    c = make_cache()
    c.insert_line(1)
    c.clear()
    assert not c.contains_line(1)


def test_validation():
    with pytest.raises(ValueError):
        SetAssociativeCache(capacity_bytes=0)
    with pytest.raises(ValueError):
        SetAssociativeCache(capacity_bytes=64, line_bytes=64, ways=4)


def test_contains_does_not_touch_counters_or_lru():
    c = SetAssociativeCache(capacity_bytes=2 * 64, line_bytes=64, ways=2)
    c.insert_line("a")
    c.insert_line("b")
    c.contains_line("a")  # must NOT refresh
    c.insert_line("c")  # evicts true LRU = a
    assert not c.contains_line("a")
    assert c.hits == 0 and c.misses == 0
