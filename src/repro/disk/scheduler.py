"""The drive's request queue with cancellation (§5.3.3).

The dissertation implements request cancellation "by removing the
corresponding requests from the [drive's] queue";
:meth:`FairShareQueue.cancel` does so with a predicate over queued
requests.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable


class FairShareQueue:
    """Round-robin between foreground and background request classes.

    A client that queues a large burst of foreground block requests must
    not starve the competitive background stream (nor vice versa): the
    drive alternates service between the two classes whenever both have
    pending work, matching the interleaving the dissertation's experiments
    assume (§6.2.2, §6.3.2).  Each class is a FIFO, so within a class
    requests are served in arrival order.
    """

    def __init__(self) -> None:
        self._fg: deque[Any] = deque()
        self._bg: deque[Any] = deque()
        self._turn_background = False
        #: Total requests removed by :meth:`cancel` over the queue's life.
        self.cancelled_total = 0

    def __len__(self) -> int:
        return len(self._fg) + len(self._bg)

    def __bool__(self) -> bool:
        return bool(self._fg or self._bg)

    def push(self, request: Any) -> None:
        (self._bg if request.is_background else self._fg).append(request)

    def pop(self) -> Any:
        """Remove and return the next request to serve: the head of the
        class whose turn it is, else the head of the other class; the turn
        then passes to the class not served."""
        turn, other = (self._bg, self._fg) if self._turn_background else (self._fg, self._bg)
        req = (turn or other).popleft()  # IndexError when both are empty
        self._turn_background = not req.is_background
        return req

    def cancel(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return all queued requests matching ``predicate``.

        One pass, calling ``predicate`` once per queued request; the
        removed foreground requests come first, then the background ones,
        each class in queue order, and the kept requests keep theirs.
        """
        hit: list[Any] = []
        for cls in (self._fg, self._bg):
            kept = []
            for r in cls:
                (hit if predicate(r) else kept).append(r)
            cls.clear()
            cls.extend(kept)
        self.cancelled_total += len(hit)
        return hit
