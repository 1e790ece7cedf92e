"""Event primitives for the simulation kernel.

Events hold a value, a list of callbacks and a tri-state life-cycle
(pending -> triggered -> processed).  A :class:`Process` wraps a generator
and is itself an event that fires when the generator returns, enabling
process composition (``yield env.process(child(env))``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    env:
        The owning environment.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire with an exception."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._value is PENDING else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        # Negative/NaN/inf delays are rejected by ``Environment.schedule``
        # with a SimulationError naming the active process.
        env.schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=0)


class Process(Event):
    """Wrap a generator; the event fires when the generator returns."""

    __slots__ = ("_generator", "name")

    def __init__(
        self, env: "Environment", generator: Generator, name: str | None = None
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        env = self.env
        if env._sanitize and self._value is not PENDING:
            from repro.sim.core import SimulationError

            raise SimulationError(
                f"sanitizer: process {self.name} resumed by {event!r} after "
                f"it already terminated (t={env.now})"
            )
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = RuntimeError(f"process yielded a non-event: {next_event!r}")
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    env.schedule(self)
                    break
                except BaseException as err:
                    self._ok = False
                    self._value = err
                    env.schedule(self)
                    break
                continue

            if next_event.callbacks is not None:
                # Event still pending/triggered: wait for it.
                next_event.callbacks.append(self._resume)
                break
            # Event already processed: loop immediately with its value.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at {id(self):#x}>"


class Condition(Event):
    """Fires when ``evaluate(events, count)`` becomes true (AnyOf/AllOf)."""

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only events that have actually fired (their callbacks have run or
        # are running) contribute a value; a Timeout pre-sets its value at
        # construction, so checking ``_value`` alone would over-collect.
        return {e: e._value for e in self._events if e.callbacks is None}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect())


def AllOf(env: "Environment", events: Iterable[Event]) -> Condition:
    """Condition that fires once *all* of ``events`` have fired."""
    return Condition(env, lambda evts, count: count == len(evts), events)


def AnyOf(env: "Environment", events: Iterable[Event]) -> Condition:
    """Condition that fires once *any* of ``events`` has fired."""
    return Condition(env, lambda evts, count: count >= 1, events)
