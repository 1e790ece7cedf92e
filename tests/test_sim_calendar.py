"""Differential suite for the indexed event calendar.

:class:`repro.sim.calendar.EventCalendar` replaced the kernel's raw-heapq
pending set; :class:`tests._calendar_ref.ReferenceCalendar` preserves
the seed implementation as the oracle.  Hypothesis drives adversarial
schedule/cancel/pop interleavings — duplicate timestamps, URGENT/NORMAL
mixes, cancels of live, popped and already-cancelled handles — through
both and asserts the observable behaviour matches element-for-element.
A second layer injects the reference calendar into the live kernel
(:class:`repro.sim.core.Environment` takes ``calendar=``) and asserts a
stress simulation dispatches the identical event sequence.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calendar import EventCalendar
from repro.sim.core import NORMAL, URGENT, Environment
from tests._calendar_ref import ReferenceCalendar

#: Deliberately tiny time alphabet so ties on (time) and (time, priority)
#: are the common case, not the corner case.
TIMES = (0.0, 0.5, 1.0, 1.5)
PRIORITIES = (URGENT, NORMAL)


def _op_strategy():
    push = st.tuples(
        st.just("push"), st.sampled_from(TIMES), st.sampled_from(PRIORITIES)
    )
    pop = st.tuples(st.just("pop"))
    peek = st.tuples(st.just("peek"))
    # Cancel targets an index into the (growing) handle history, so it
    # hits live, popped and double-cancelled handles alike.
    cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=127))
    return st.lists(st.one_of(push, pop, peek, cancel), max_size=120)


def _apply(cal, handles, op, payload):
    """Run one op; return an observation tuple for cross-implementation diff."""
    kind = op[0]
    if kind == "push":
        handles.append(cal.push(op[1], op[2], payload))
        return ("push", len(cal))
    if kind == "peek":
        return ("peek", cal.peek_time(), len(cal))
    if kind == "cancel":
        if not handles:
            return ("cancel", None)
        return ("cancel", cal.cancel(handles[op[1] % len(handles)]), len(cal))
    try:
        t, prio, eid, event = cal.pop()
    except IndexError:
        return ("pop", "empty")
    return ("pop", t, prio, eid, event, len(cal))


@settings(deadline=None, max_examples=200)
@given(ops=_op_strategy())
def test_calendar_matches_reference_on_random_interleavings(ops):
    """Any schedule/cancel/pop interleaving observes identically."""
    new, ref = EventCalendar(), ReferenceCalendar()
    new_handles, ref_handles = [], []
    for payload, op in enumerate(ops):
        obs_new = _apply(new, new_handles, op, payload)
        obs_ref = _apply(ref, ref_handles, op, payload)
        assert obs_new == obs_ref, f"diverged at op {op}"
    # Drain both: the full residual pop order must agree too.
    while ref:
        assert new.pop() == ref.pop()
    assert not new
    with pytest.raises(IndexError):
        new.pop()
    with pytest.raises(IndexError):
        ref.pop()


@settings(deadline=None, max_examples=100)
@given(
    items=st.lists(
        st.tuples(st.sampled_from(TIMES), st.sampled_from(PRIORITIES)), max_size=60
    ),
    preload=st.integers(min_value=0, max_value=40),
)
def test_push_batch_pop_order_matches_reference(items, preload):
    """Bulk insertion (both the sift and the heapify path) preserves order.

    ``preload`` single pushes first so the batch/heap size ratio crosses
    the heapify threshold from both sides.
    """
    new, ref = EventCalendar(), ReferenceCalendar()
    for i in range(preload):
        t = TIMES[i % len(TIMES)]
        new.push(t, NORMAL, ("pre", i))
        ref.push(t, NORMAL, ("pre", i))
    new.push_batch((t, p, ("batch", i)) for i, (t, p) in enumerate(items))
    ref.push_batch((t, p, ("batch", i)) for i, (t, p) in enumerate(items))
    assert len(new) == len(ref)
    while ref:
        assert new.pop() == ref.pop()


class TestCalendarSemantics:
    """Directed edge cases the property suite relies on."""

    @pytest.mark.parametrize("cls", [EventCalendar, ReferenceCalendar])
    def test_empty(self, cls):
        cal = cls()
        assert len(cal) == 0 and not cal
        assert cal.peek_time() == math.inf
        with pytest.raises(IndexError):
            cal.pop()

    @pytest.mark.parametrize("cls", [EventCalendar, ReferenceCalendar])
    def test_tie_break_is_priority_then_insertion(self, cls):
        cal = cls()
        cal.push(1.0, NORMAL, "n0")
        cal.push(1.0, URGENT, "u0")
        cal.push(1.0, NORMAL, "n1")
        cal.push(0.5, NORMAL, "early")
        order = [cal.pop()[3] for _ in range(4)]
        assert order == ["early", "u0", "n0", "n1"]

    @pytest.mark.parametrize("cls", [EventCalendar, ReferenceCalendar])
    def test_cancel_states(self, cls):
        cal = cls()
        h_live = cal.push(1.0, NORMAL, "live")
        h_popped = cal.push(0.0, NORMAL, "popped")
        assert cal.pop()[3] == "popped"
        assert cal.cancel(h_popped) is False  # already consumed
        assert cal.cancel(h_live) is True
        assert cal.cancel(h_live) is False  # double cancel
        assert len(cal) == 0 and cal.peek_time() == math.inf

    def test_cancelled_entry_never_surfaces(self):
        cal = EventCalendar()
        h = cal.push(0.0, URGENT, "dead")
        cal.push(1.0, NORMAL, "live")
        cal.cancel(h)
        assert cal.peek_time() == 1.0
        assert cal.pop()[3] == "live"

    def test_cancel_rejects_foreign_handle(self):
        with pytest.raises(ValueError):
            EventCalendar().cancel((1.0, NORMAL, 0, "tuple-not-list"))

    def test_len_counts_only_live(self):
        cal = EventCalendar()
        handles = [cal.push(float(i % 2), NORMAL, i) for i in range(6)]
        for h in handles[::2]:
            cal.cancel(h)
        assert len(cal) == 3


# -- kernel-level differential ---------------------------------------------


def _stress_trace(calendar) -> list:
    """Dispatch trace of a seeded process mix under the given calendar.

    The mix is deterministic (no RNG: the kernel itself must not depend on
    one) and engineered for same-instant collisions: every process cycles
    through the same small delay alphabet, so each instant carries many
    NORMAL timeouts plus the URGENT initialisation/interrupt events.
    """
    env = Environment(calendar=calendar)
    trace: list = []
    DELAYS = (0.0, 0.25, 0.25, 0.5, 1.0)

    def worker(pid: int):
        for step in range(12):
            yield env.timeout(DELAYS[(pid + step) % len(DELAYS)])
            trace.append((env.now, "worker", pid, step))

    def interruptor(victim):
        yield env.timeout(1.25)
        victim.interrupt("poke")
        trace.append((env.now, "interrupt-sent"))

    def fragile():
        try:
            yield env.timeout(100.0)
        except Exception as exc:  # Interrupt
            trace.append((env.now, "interrupted", str(exc.args[0])))
        for _ in range(3):
            yield env.timeout(0.25)
            trace.append((env.now, "fragile-step"))

    procs = [env.process(worker(pid), name=f"w{pid}") for pid in range(6)]
    victim = env.process(fragile(), name="fragile")
    env.process(interruptor(victim), name="irq")
    env.run()
    trace.append((env.now, "end", [p.is_alive for p in procs]))
    return trace


def test_kernel_dispatch_order_is_calendar_independent():
    """The live kernel dispatches identically through either calendar.

    This exercises the kernel's inlined push/pop fast path (stock
    calendar) against the protocol path (injected reference) — the two
    code branches in ``Environment.schedule``/``Environment.step``.
    """
    assert _stress_trace(EventCalendar()) == _stress_trace(ReferenceCalendar())


def test_kernel_default_calendar_is_event_calendar():
    env = Environment()
    assert type(env._calendar) is EventCalendar
    # The inline fast path aliases the calendar's own storage.
    assert env._heap is env._calendar._heap
