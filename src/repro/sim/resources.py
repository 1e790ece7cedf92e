"""The FIFO store the event engine's clients read their inboxes through.

Each client of :mod:`repro.accesscore.events` collects block outcomes in
one :class:`Store`: the drives' completion callbacks put, and the client
process yields on :meth:`Store.get` until the next outcome arrives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class StoreGet(Event):
    """Pending :meth:`Store.get`; fires with the item taken."""

    __slots__ = ()


class Store:
    """An unbounded FIFO buffer of Python objects.

    A put never waits, so :meth:`put` schedules no event: it only hands
    the item to the oldest waiting getter, if there is one.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []

    def put(self, item: Any) -> None:
        """Deposit ``item``, serving the oldest waiting getter first."""
        self.items.append(item)
        if self._getters:
            self._getters.pop(0).succeed(self.items.pop(0))

    def get(self) -> StoreGet:
        """Take the oldest item; the event fires with the item as value."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev
