"""The kernel's event calendar: an indexed, batch-friendly pending set.

The seed kernel kept its pending events as raw ``heapq`` 4-tuples
``(time, priority, eid, event)`` and had no way to remove one.  This
module factors the structure out behind a small API:

* **total order** — identical to the seed: time-major, then scheduling
  priority (URGENT before NORMAL), then insertion order.  The insertion
  counter is unique, so the event object itself is never compared and
  every pop sequence is bit-identical to the reference implementation
  (``tests/_calendar_ref.py``, the oracle the differential suite in
  ``tests/test_sim_calendar.py`` proves this against).
* **indexed** — :meth:`push` returns a handle; :meth:`cancel` removes
  the entry by tombstoning it in place (lazy deletion), O(1).
  Cancelled entries are discarded when they surface at the top.  Only
  cancellation touches the bookkeeping counter: the push→pop fast path
  — the entirety of a cancel-free simulation — maintains no counts at
  all, which is what lets the kernel inline it.
* **batch-friendly** — :meth:`push_batch` inserts many events in one
  call, switching from repeated sifts to a single ``heapify`` once the
  batch rivals the heap (the classic calendar-bulk-load trade-off).
  Because the ``(time, priority, eid)`` order is unique, the pop
  sequence is the same either way.

Entries are 4-slot lists ``[time, priority, eid, event]`` — the seed's
tuple layout made mutable so a cancel can null the event slot in place.
Two slimmer layouts were measured and rejected on CPython: packing
``(priority << 56) | eid`` into one key costs more per push (the
shift/or on every insert) than the saved tie-break comparison ever
returns (~12% slower end to end), and an immutable 3-tuple cannot be
tombstoned at all.  The structure also deliberately stays a binary heap
rather than a bucketed calendar queue: the simulator's timestamp
distribution is dominated by same-instant bursts (every disk of an
access acks within one RTT), the degenerate case bucket widths handle
worst.

:class:`repro.sim.core.Environment` inlines :meth:`push`/:meth:`pop`
over ``_heap`` for the stock calendar — any change to the entry layout
here must be mirrored there (the differential suite catches a mismatch).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Iterable

__all__ = ["EventCalendar"]

#: Index of the event payload inside a calendar entry; ``None`` there
#: marks a tombstone.
_EVENT = 3


class EventCalendar:
    """Pending-event structure with the kernel's ``(time, priority, eid)``
    total order, O(1) lazy cancellation and bulk insertion.

    Entries are ``[time, priority, eid, event]`` lists; a cancelled entry
    has its event slot set to ``None`` and is skipped (and counted back
    out of ``_dead``) when it reaches the top.  Ties on time are broken
    by priority then by the unique insertion counter, so the event object
    is never compared.
    """

    __slots__ = ("_heap", "_eid", "_dead")

    def __init__(self) -> None:
        self._heap: list[list] = []
        #: C-level insertion counter shared with the kernel's inline path.
        self._eid = count()
        #: Tombstones still sitting in ``_heap``.
        self._dead = 0

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        """Number of live (non-cancelled) entries."""
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    def peek_time(self) -> float:
        """Time of the earliest live entry, or ``inf`` when empty.

        Tombstones that have reached the top are discarded on the way.
        """
        heap = self._heap
        while heap and heap[0][_EVENT] is None:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else math.inf

    # -- scheduling -----------------------------------------------------
    def push(self, time: float, priority: int, event: Any) -> list:
        """Insert ``event``; return its handle (accepted by :meth:`cancel`)."""
        entry = [time, priority, next(self._eid), event]
        heappush(self._heap, entry)
        return entry

    def push_batch(self, items: Iterable[tuple[float, int, Any]]) -> list[list]:
        """Insert many ``(time, priority, event)`` at once; return handles.

        Falls back to repeated sifts for small batches; rebuilds the heap
        in one ``heapify`` when the batch is at least half the heap, which
        is O(n + m) instead of O(m log n).  Pop order is unaffected.
        """
        eid = self._eid
        entries = [
            [time, priority, next(eid), event] for time, priority, event in items
        ]
        heap = self._heap
        if len(entries) * 2 >= len(heap):
            heap.extend(entries)
            heapify(heap)
        else:
            for entry in entries:
                heappush(heap, entry)
        return entries

    # -- consumption ----------------------------------------------------
    def pop(self) -> tuple[float, int, int, Any]:
        """Remove and return the earliest live entry as
        ``(time, priority, eid, event)``.

        Raises
        ------
        IndexError
            When no live entries remain.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[_EVENT]
            if event is None:
                self._dead -= 1
                continue
            # Null the slot so a stale handle passed to cancel() later is
            # recognised as dead instead of corrupting the count.
            entry[_EVENT] = None
            return entry[0], entry[1], entry[2], event
        raise IndexError("pop from an empty calendar")

    # -- cancellation ---------------------------------------------------
    def cancel(self, handle: list) -> bool:
        """Remove the entry behind ``handle`` (a :meth:`push` return value).

        Returns ``True`` if the entry was live, ``False`` if it was
        already popped or cancelled.  The slot is tombstoned in place and
        reclaimed lazily — no sift, no search.
        """
        if type(handle) is not list or len(handle) != 4:
            raise ValueError(f"not a calendar handle: {handle!r}")
        if handle[_EVENT] is None:
            return False
        handle[_EVENT] = None
        self._dead += 1
        return True
