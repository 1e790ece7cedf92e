"""Dispatch-order suite for the kernel's pending-event heap.

:class:`repro.sim.core.Environment` keeps its pending events in an inline
``heapq`` of ``(time, priority, eid, event)`` tuples.  Hypothesis draws
process mixes engineered for same-instant collisions — workers cycling
through a tiny delay alphabet, and workers started mid-run, whose URGENT
starts land on instants crowded with NORMAL timeouts — and the suite
asserts that a mix run twice dispatches the identical trace, that the
clock never runs backwards and that each start runs before the NORMAL
events already due.  The directed tests pin the tie-break itself: time,
then priority, then insertion order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import NORMAL, URGENT, EmptySchedule, Environment

#: Deliberately tiny delay alphabet so ties on (time) and (time, priority)
#: are the common case, not the corner case.
DELAYS = (0.0, 0.25, 0.5, 1.0)
#: Mid-run starts land on the same grid, after every first worker started.
SPAWN_TIMES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def _stress_trace(steps, delays, spawns) -> list:
    """Dispatch trace of a deterministic process mix.

    Worker ``pid`` runs ``steps[pid]`` timeouts, cycling through
    ``delays``; each ``(at, n_steps)`` of ``spawns`` starts one more
    worker with ``n_steps`` steps at time ``at``.  That worker's start is
    an URGENT ``Initialize`` event, so it runs before the NORMAL timeouts
    already due at ``at``.  No RNG: the kernel itself must not depend on
    one.
    """
    env = Environment()
    trace: list = []

    def worker(pid: int, n_steps: int):
        trace.append((env.now, "start", pid))
        for step in range(n_steps):
            yield env.timeout(delays[(pid + step) % len(delays)])
            trace.append((env.now, "worker", pid, step))
        return pid, env.now

    def spawner(at: float, n_steps: int):
        yield env.timeout(at)
        pid = len(procs)
        trace.append((env.now, "spawn", pid))
        procs.append(env.process(worker(pid, n_steps), name=f"w{pid}"))

    procs = [
        env.process(worker(pid, n), name=f"w{pid}") for pid, n in enumerate(steps)
    ]
    for i, (at, n) in enumerate(spawns):
        env.process(spawner(at, n), name=f"spawner{i}")
    env.run()
    trace.append((env.now, "end", [p.value for p in procs]))
    return trace


@settings(deadline=None, max_examples=200)
@given(
    steps=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6),
    delays=st.lists(st.sampled_from(DELAYS), min_size=1, max_size=5),
    spawns=st.lists(
        st.tuples(st.sampled_from(SPAWN_TIMES), st.integers(0, 8)), max_size=4
    ),
)
def test_kernel_dispatch_is_deterministic_and_monotone(steps, delays, spawns):
    """A mix run twice dispatches the identical trace, in time order."""
    trace = _stress_trace(steps, delays, spawns)
    assert _stress_trace(steps, delays, spawns) == trace
    times = [entry[0] for entry in trace]
    assert times == sorted(times)
    # A start is URGENT, so it runs before every NORMAL event already due.
    for i, entry in enumerate(trace):
        if entry[1] == "spawn":
            assert trace[i + 1] == (entry[0], "start", entry[2])


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
