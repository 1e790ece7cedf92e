"""Simulation environment: the event loop and virtual clock."""

from __future__ import annotations

import math
import os
from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, Optional

from repro.obs.tracer import NULL_TRACER
from repro.sim.events import PENDING, AllOf, AnyOf, Event, Process, Timeout

# Scheduling priorities: URGENT events (process initialisation, interrupts)
# run before NORMAL events scheduled at the same instant.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`repro.sim.events.Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0]


class StopSimulation(Exception):
    """Internal: raised to end :meth:`Environment.run` at an *until* event."""


class EmptySchedule(Exception):
    """Internal: raised when the event queue runs dry."""


class Environment:
    """A discrete-event simulation environment.

    Maintains the virtual clock and the pending-event heap.  All entities of
    the RobuSTore simulator (clients, filers, drives, workload generators)
    share one environment.

    Pending events are ``heapq`` entries ``(time, priority, eid, event)``:
    time-major, then scheduling priority (URGENT before NORMAL), then the
    unique insertion counter ``eid``, so the event object itself is never
    compared and same-instant events dispatch in scheduling order.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (seconds by convention).
    tracer:
        Optional :class:`repro.obs.Tracer`; the kernel emits process
        lifecycle spans and event-dispatch instants through it.  Defaults
        to the no-op tracer.
    sanitize:
        Enable the DES causality sanitizer: every ``schedule``/``step``
        additionally checks for double-scheduling, scheduling onto an
        already-processed event, time running backwards, and (in
        :class:`repro.sim.events.Process`) resuming a terminated
        process.  Violations raise :class:`SimulationError` naming the
        active process and the timeline position.  ``None`` (default)
        reads the ``REPRO_SANITIZE`` environment variable.
    calendar:
        Optional replacement for the built-in heap: any object with
        ``push(time, priority, event)``, ``pop() -> (time, priority, eid,
        event)`` (raising ``IndexError`` when empty) and ``peek_time()``.
        The differential tests inject
        ``tests/_calendar_ref.ReferenceCalendar`` here to prove the
        kernel's dispatch order is implementation-independent.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        tracer=None,
        sanitize: Optional[bool] = None,
        calendar=None,
    ) -> None:
        self._now = float(initial_time)
        # The kernel's own pending-event heap, or None when an injected
        # calendar holds the pending events instead.
        self._heap: Optional[list[tuple[float, int, int, Event]]] = (
            [] if calendar is None else None
        )
        self._eid = count()
        self._calendar = calendar
        self._active_proc: Optional[Process] = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
                "1",
                "true",
                "yes",
                "on",
            )
        self._sanitize = bool(sanitize)
        # id()s of events currently sitting in the queue (sanitizer only).
        # Events in the queue are referenced by it, so ids stay unique
        # for exactly as long as they are tracked here.
        self._inflight: Optional[set[int]] = set() if self._sanitize else None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def sanitize(self) -> bool:
        """True when the DES causality sanitizer is active."""
        return self._sanitize

    def _context(self) -> str:
        """Diagnostic suffix: the active process and timeline position."""
        proc = self._active_proc.name if self._active_proc is not None else "<none>"
        return f" (active process={proc}, t={self._now})"

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Register ``generator`` as a new simulation process."""
        proc = Process(self, generator, name=name)
        tracer = self.tracer
        if tracer.enabled:
            t_start = self._now
            tracer.instant(
                f"sim.process.start:{proc.name}", "sim", t_start, track="kernel"
            )
            tracer.count("sim.processes_started")

            def _trace_finish(event: Event, _t0: float = t_start, _name: str = proc.name):
                tracer.span(f"sim.process:{_name}", "sim", _t0, self._now, track="kernel")

            proc.callbacks.append(_trace_finish)
        return proc

    def all_of(self, events) -> Event:
        return AllOf(self, events)

    def any_of(self, events) -> Event:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue a triggered ``event`` to be processed ``delay`` from now.

        Raises
        ------
        SimulationError
            If ``delay`` is negative, NaN or infinite — such delays would
            silently corrupt the event-heap ordering, so they are rejected
            even when the sanitizer is off.
        """
        if not 0.0 <= delay < math.inf:  # rejects negative, NaN and inf
            raise SimulationError(
                f"cannot schedule {event!r} with delay {delay!r}: delays "
                f"must be finite and non-negative{self._context()}"
            )
        if self._inflight is not None:
            self._sanitize_schedule(event)
        heap = self._heap
        if heap is not None:
            heappush(heap, (self._now + delay, priority, next(self._eid), event))
        else:
            self._calendar.push(self._now + delay, priority, event)
        if self._inflight is not None:
            self._inflight.add(id(event))

    def _sanitize_schedule(self, event: Event) -> None:
        if event.callbacks is None:
            raise SimulationError(
                f"sanitizer: scheduling already-processed event {event!r}; "
                f"its callbacks have run and will not run again{self._context()}"
            )
        if id(event) in self._inflight:
            raise SimulationError(
                f"sanitizer: {event!r} is already scheduled; double-scheduling "
                f"would dispatch its callbacks twice{self._context()}"
            )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        heap = self._heap
        if heap is None:
            return self._calendar.peek_time()
        return heap[0][0] if heap else math.inf

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        heap = self._heap
        if heap is not None:
            if not heap:
                raise EmptySchedule()
            t, _, _, event = heappop(heap)
        else:
            try:
                t, _, _, event = self._calendar.pop()
            except IndexError:
                raise EmptySchedule() from None
        if self._inflight is not None:
            self._inflight.discard(id(event))
            if t < self._now:
                raise SimulationError(
                    f"sanitizer: causality violation — {event!r} due at t={t} "
                    f"popped after the clock reached t={self._now}"
                )
        self._now = t

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} was scheduled twice")
        if self.tracer.enabled:
            self.tracer.count("sim.events_dispatched")
            self.tracer.instant(
                f"sim.dispatch:{type(event).__name__}", "sim", self._now, track="kernel"
            )
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure propagates out of the simulation.
            if isinstance(event._value, BaseException):
                raise event._value
            raise SimulationError(f"event failed with non-exception {event._value!r}")

    def run(self, until: Event | float | int | None = None) -> Any:
        """Run until the queue is empty, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a number — run until the clock
            reaches that time; an :class:`Event` — run until it fires and
            return its value.
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
                if until_event.callbacks is None:  # already processed
                    return until_event._value
                until_event.callbacks.append(_stop_simulate)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until ({at}) must not be before now ({self._now})")
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                # Urgent so that events *at* the stop time do not run.
                self.schedule(until_event, URGENT, at - self._now)
                until_event.callbacks.append(_stop_simulate)

        try:
            while True:
                self.step()
        except StopSimulation:
            assert until_event is not None
            if not until_event._ok and isinstance(until_event._value, BaseException):
                raise until_event._value
            return until_event._value
        except EmptySchedule:
            if until_event is not None and until_event._value is PENDING:
                raise SimulationError(
                    "ran out of events before the 'until' event fired"
                ) from None
            return None


def _stop_simulate(event: Event) -> None:
    raise StopSimulation()
