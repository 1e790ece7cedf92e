"""Dispatch-order suite for the kernel's pending-event heap.

:class:`repro.sim.core.Environment` keeps its pending events in an inline
``heapq`` of ``(time, priority, eid, event)`` tuples.  Hypothesis draws
process mixes engineered for same-instant collisions — workers cycling
through a tiny delay alphabet, interrupts (URGENT) landing on instants
crowded with NORMAL timeouts — and the suite asserts that a mix run twice
dispatches the identical trace and that the clock never runs backwards.
The directed tests pin the tie-break itself: time, then priority, then
insertion order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import NORMAL, URGENT, EmptySchedule, Environment, Interrupt

#: Deliberately tiny delay alphabet so ties on (time) and (time, priority)
#: are the common case, not the corner case.
DELAYS = (0.0, 0.25, 0.5, 1.0)
#: Interrupts land on the same grid, after every process has started.
INTERRUPT_TIMES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def _stress_trace(steps, delays, interrupts) -> list:
    """Dispatch trace of a deterministic process mix.

    Worker ``pid`` runs ``steps[pid]`` timeouts, cycling through
    ``delays``; each ``(at, target)`` of ``interrupts`` interrupts worker
    ``target % len(steps)`` at time ``at`` if it is still alive.  No RNG:
    the kernel itself must not depend on one.
    """
    env = Environment()
    trace: list = []

    def worker(pid: int, n_steps: int):
        for step in range(n_steps):
            try:
                yield env.timeout(delays[(pid + step) % len(delays)])
                trace.append((env.now, "worker", pid, step))
            except Interrupt as exc:
                trace.append((env.now, "interrupted", pid, step, exc.cause))

    def interruptor(at: float, target: int):
        yield env.timeout(at)
        victim = procs[target % len(procs)]
        alive = victim.is_alive
        if alive:
            victim.interrupt(("poke", target))
        trace.append((env.now, "interrupt-sent", target, alive))

    procs = [
        env.process(worker(pid, n), name=f"w{pid}") for pid, n in enumerate(steps)
    ]
    for i, (at, target) in enumerate(interrupts):
        env.process(interruptor(at, target), name=f"irq{i}")
    env.run()
    trace.append((env.now, "end", [p.is_alive for p in procs]))
    return trace


@settings(deadline=None, max_examples=200)
@given(
    steps=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6),
    delays=st.lists(st.sampled_from(DELAYS), min_size=1, max_size=5),
    interrupts=st.lists(
        st.tuples(st.sampled_from(INTERRUPT_TIMES), st.integers(0, 5)), max_size=4
    ),
)
def test_kernel_dispatch_is_deterministic_and_monotone(steps, delays, interrupts):
    """A mix run twice dispatches the identical trace, in time order."""
    trace = _stress_trace(steps, delays, interrupts)
    assert _stress_trace(steps, delays, interrupts) == trace
    times = [entry[0] for entry in trace]
    assert times == sorted(times)


def test_kernel_heap_entries_are_4_tuples():
    """One module owns the entry layout: ``(time, priority, eid, event)``."""
    env = Environment()
    ev = env.event()
    env.schedule(ev, NORMAL, delay=2.0)
    assert env._heap == [(2.0, NORMAL, 0, ev)]


class TestCalendarSemantics:
    """Directed edge cases of the pending-event heap."""

    def test_empty(self):
        env = Environment()
        with pytest.raises(EmptySchedule):
            env.step()
        assert env.run() is None

    def test_tie_break_is_priority_then_insertion(self):
        env = Environment()
        order = []
        for tag, priority, delay in (
            ("n0", NORMAL, 1.0),
            ("u0", URGENT, 1.0),
            ("n1", NORMAL, 1.0),
            ("early", NORMAL, 0.5),
        ):
            ev = env.event()
            ev._value = tag
            ev.callbacks.append(lambda e: order.append(e._value))
            env.schedule(ev, priority, delay)
        env.run()
        assert order == ["early", "u0", "n0", "n1"]
