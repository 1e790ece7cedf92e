"""Reference event calendar: the seed kernel's raw-heapq implementation.

This module preserves, verbatim in structure, the pending-event store the
simulator shipped with: a ``heapq`` of ``(time, priority, eid, event)``
4-tuples with an :func:`itertools.count` event id, behind the
``push``/``pop``/``peek_time`` protocol that
:class:`repro.sim.core.Environment` accepts as ``calendar=``.  It exists
solely as the *oracle* for the differential suite in
``tests/test_sim_calendar.py``, which runs the same simulations on the
kernel's own inline heap and on this calendar and asserts identical
dispatch traces.

Do not use this in production paths; it is intentionally the slow,
obviously-correct implementation.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Any

__all__ = ["ReferenceCalendar"]


class ReferenceCalendar:
    """Seed-faithful pending-event store with the kernel's calendar protocol.

    The heap entries and tie-breaking are exactly the seed kernel's:
    4-tuples ordered by ``(time, priority, eid)`` where ``eid`` is a
    monotonically increasing insertion counter.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, Any]] = []
        self._eid = count()

    def peek_time(self) -> float:
        return self._queue[0][0] if self._queue else math.inf

    def push(self, time: float, priority: int, event: Any) -> None:
        heappush(self._queue, (time, priority, next(self._eid), event))

    def pop(self) -> tuple[float, int, int, Any]:
        if not self._queue:
            raise IndexError("pop from an empty calendar")
        return heappop(self._queue)
