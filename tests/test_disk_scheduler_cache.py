"""Tests for the drive's fair-share request queue."""

from dataclasses import dataclass

import pytest

from repro.disk.scheduler import FairShareQueue


@dataclass
class Req:
    n: int
    tag: str = ""
    is_background: bool = False


def drain(q):
    return [q.pop().n for _ in range(len(q))]


class TestQueues:
    def test_fcfs_order(self):
        """Foreground requests alone are served first-come first-served."""
        q = FairShareQueue()
        for n in (5, 1, 9):
            q.push(Req(n))
        assert drain(q) == [5, 1, 9]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FairShareQueue().pop()

    def test_cancel_by_predicate(self):
        q = FairShareQueue()
        q.push(Req(1, "keep"))
        q.push(Req(2, "drop"))
        q.push(Req(3, "drop"))
        removed = q.cancel(lambda r: r.tag == "drop")
        assert [r.n for r in removed] == [2, 3]
        assert len(q) == 1
        assert q.pop().tag == "keep"

    def test_cancel_calls_predicate_once_per_request_and_keeps_order(self):
        q = FairShareQueue()
        for n in range(8):
            q.push(Req(n))
        seen = []

        def predicate(r):
            seen.append(r.n)
            return r.n % 3 == 1

        removed = q.cancel(predicate)
        assert seen == list(range(8))
        assert [r.n for r in removed] == [1, 4, 7]
        assert drain(q) == [0, 2, 3, 5, 6]
        assert q.cancelled_total == 3

    def test_bool_and_len(self):
        q = FairShareQueue()
        assert not q
        q.push(Req(1))
        assert q and len(q) == 1
        q.push(Req(2, is_background=True))
        assert len(q) == 2

    def test_classes_alternate_and_keep_arrival_order_across_cancel(self):
        """Foreground goes first; while both classes wait they alternate,
        each in arrival order, and the turn passes to the class not served
        when only one class waits.  A cancel keeps both orders."""
        q = FairShareQueue()
        for n in range(6):
            q.push(Req(n, is_background=n % 3 == 2))  # background: 2, 5
        for n in range(6, 9):
            q.push(Req(n, tag="drop" if n == 7 else ""))
        removed = q.cancel(lambda r: r.tag == "drop" or r.n == 2)
        assert [r.n for r in removed] == [7, 2]  # foreground first
        assert q.cancelled_total == 2
        # Foreground 0, 1, 3, 4, 6, 8 and background 5 remain.
        assert [q.pop().n for _ in range(4)] == [0, 5, 1, 3]
        # Only foreground was waiting for the last pop, so the turn stayed
        # with background: a new background request goes next.
        q.push(Req(9, is_background=True))
        assert drain(q) == [9, 4, 6, 8]
