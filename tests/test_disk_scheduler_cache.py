"""Tests for disk scheduling disciplines and the segment cache."""

from dataclasses import dataclass

import pytest

from repro.disk.cache import SegmentCache
from repro.disk.scheduler import ElevatorQueue, FCFSQueue, SSTFQueue, make_queue


@dataclass
class Req:
    cylinder: int
    tag: str = ""


class TestQueues:
    def test_fcfs_order(self):
        q = FCFSQueue()
        for c in (5, 1, 9):
            q.push(Req(c))
        assert [q.pop().cylinder for _ in range(3)] == [5, 1, 9]

    def test_sstf_picks_nearest(self):
        q = SSTFQueue()
        for c in (100, 10, 55):
            q.push(Req(c))
        assert q.pop(head_cylinder=50).cylinder == 55
        assert q.pop(head_cylinder=55).cylinder == 100
        assert q.pop(head_cylinder=100).cylinder == 10

    def test_elevator_sweeps_then_reverses(self):
        q = ElevatorQueue()
        for c in (30, 70, 10):
            q.push(Req(c))
        assert q.pop(head_cylinder=50).cylinder == 70  # sweep up
        assert q.pop(head_cylinder=70).cylinder == 30  # reverse
        assert q.pop(head_cylinder=30).cylinder == 10

    def test_pop_empty_raises(self):
        for q in (FCFSQueue(), SSTFQueue(), ElevatorQueue()):
            with pytest.raises(IndexError):
                q.pop()

    def test_cancel_by_predicate(self):
        q = FCFSQueue()
        q.push(Req(1, "keep"))
        q.push(Req(2, "drop"))
        q.push(Req(3, "drop"))
        removed = q.cancel(lambda r: r.tag == "drop")
        assert [r.cylinder for r in removed] == [2, 3]
        assert len(q) == 1
        assert q.pop().tag == "keep"

    def test_cancel_calls_predicate_once_per_request_and_keeps_order(self):
        q = FCFSQueue()
        for c in range(8):
            q.push(Req(c))
        seen = []

        def predicate(r):
            seen.append(r.cylinder)
            return r.cylinder % 3 == 1

        removed = q.cancel(predicate)
        assert seen == list(range(8))
        assert [r.cylinder for r in removed] == [1, 4, 7]
        assert [r.cylinder for r in q.peek_all()] == [0, 2, 3, 5, 6]
        assert q.cancelled_total == 3

    def test_make_queue_names(self):
        assert isinstance(make_queue("FCFS"), FCFSQueue)
        assert isinstance(make_queue("sstf"), SSTFQueue)
        assert isinstance(make_queue("elevator"), ElevatorQueue)
        with pytest.raises(ValueError):
            make_queue("lifo")

    def test_bool_and_len(self):
        q = FCFSQueue()
        assert not q
        q.push(Req(1))
        assert q and len(q) == 1


class TestSegmentCache:
    def test_miss_then_hit(self):
        c = SegmentCache()
        assert not c.lookup(100, 8)
        c.fill(100, 8)
        assert c.lookup(100, 8)
        assert c.hits == 1 and c.misses == 1

    def test_read_ahead_extends_segment(self):
        c = SegmentCache(read_ahead_sectors=64)
        c.fill(0, 8)
        assert c.lookup(8, 32)  # inside the read-ahead window

    def test_partial_overlap_is_miss(self):
        c = SegmentCache(read_ahead_sectors=0)
        c.fill(0, 10)
        assert not c.lookup(5, 10)

    def test_adjacent_fills_merge(self):
        c = SegmentCache(read_ahead_sectors=0, segments=4)
        c.fill(0, 10)
        c.fill(10, 10)
        assert len(c._segments) == 1
        assert c.lookup(0, 20)

    def test_lru_eviction_by_segment_count(self):
        c = SegmentCache(segments=2, read_ahead_sectors=0)
        c.fill(0, 4)
        c.fill(1000, 4)
        c.fill(2000, 4)
        assert not c.lookup(0, 4)  # oldest evicted
        assert c.lookup(1000, 4)
        assert c.lookup(2000, 4)

    def test_capacity_eviction(self):
        c = SegmentCache(capacity_bytes=512 * 100, segments=16, read_ahead_sectors=0)
        c.fill(0, 60)
        c.fill(1000, 60)  # exceeds 100-sector capacity
        assert not c.lookup(0, 60)
        assert c.lookup(1000, 60)

    def test_single_oversized_segment_trimmed(self):
        c = SegmentCache(capacity_bytes=512 * 10, segments=4, read_ahead_sectors=0)
        c.fill(0, 100)
        assert c.used_sectors <= 10

    def test_clear(self):
        c = SegmentCache()
        c.fill(0, 8)
        c.clear()
        assert not c.lookup(0, 8)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SegmentCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            SegmentCache(segments=0)
