"""Disk request-queue scheduling disciplines with cancellation (§5.3.3).

The dissertation implements request cancellation "by removing the
corresponding requests from the [drive's] queue"; every discipline here
supports :meth:`~RequestQueue.cancel` with a predicate over queued requests.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class RequestQueue:
    """Base class: a mutable queue of pending disk requests."""

    def __init__(self) -> None:
        self._items: list[Any] = []
        #: Deepest the queue has ever been (observability: queue-depth
        #: accounting survives even without a live tracer attached).
        self.max_depth = 0
        #: Total requests removed by :meth:`cancel` over the queue's life.
        self.cancelled_total = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, request: Any) -> None:
        self._items.append(request)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def pop(self, head_cylinder: int = 0) -> Any:
        """Remove and return the next request to serve."""
        raise NotImplementedError

    def cancel(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return all queued requests matching ``predicate``.

        One pass, calling ``predicate`` once per queued request; the
        removed and the kept requests each stay in queue order.
        """
        hit: list[Any] = []
        kept: list[Any] = []
        for r in self._items:
            (hit if predicate(r) else kept).append(r)
        self._items = kept
        self.cancelled_total += len(hit)
        return hit

    def peek_all(self) -> list[Any]:
        return list(self._items)


class FCFSQueue(RequestQueue):
    """First-come first-served (arrival order)."""

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        return self._items.pop(0)


class SSTFQueue(RequestQueue):
    """Shortest-seek-time-first: serve the request nearest the head."""

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        best = min(
            range(len(self._items)),
            key=lambda i: abs(self._items[i].cylinder - head_cylinder),
        )
        return self._items.pop(best)


class ElevatorQueue(RequestQueue):
    """SCAN/elevator: sweep up, then down, serving requests along the way."""

    def __init__(self) -> None:
        super().__init__()
        self.direction = 1  # +1 sweeping toward higher cylinders

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        ahead: Optional[int] = None
        best_dist = None
        for i, r in enumerate(self._items):
            delta = (r.cylinder - head_cylinder) * self.direction
            if delta >= 0 and (best_dist is None or delta < best_dist):
                ahead, best_dist = i, delta
        if ahead is None:
            self.direction = -self.direction
            return self.pop(head_cylinder)
        return self._items.pop(ahead)


class FairShareQueue(RequestQueue):
    """Round-robin between foreground and background request classes.

    A client that queues a large burst of foreground block requests must
    not starve the competitive background stream (nor vice versa): the
    drive alternates service between the two classes whenever both have
    pending work, matching the interleaving the dissertation's experiments
    assume (§6.2.2, §6.3.2).
    """

    def __init__(self) -> None:
        super().__init__()
        self._turn_background = False

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        want_bg = self._turn_background
        for preferred in (want_bg, not want_bg):
            for i, r in enumerate(self._items):
                if bool(getattr(r, "is_background", False)) == preferred:
                    self._turn_background = not preferred
                    return self._items.pop(i)
        raise AssertionError("unreachable")


SCHEDULERS: dict[str, type[RequestQueue]] = {
    "fcfs": FCFSQueue,
    "sstf": SSTFQueue,
    "elevator": ElevatorQueue,
    "fair": FairShareQueue,
}


def make_queue(name: str) -> RequestQueue:
    """Instantiate a scheduling discipline by name."""
    try:
        return SCHEDULERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
