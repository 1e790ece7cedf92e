"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0, 7.5]


def test_timeout_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1, value="hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="finite and non-negative"):
        env.timeout(-1)


def test_nan_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="finite and non-negative"):
        env.timeout(float("nan"))
    with pytest.raises(SimulationError, match="finite and non-negative"):
        env.timeout(float("inf"))


def test_run_until_time_stops_clock():
    env = Environment()
    fired = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            fired.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    assert env.now == 3.5  # lint: disable=SIM003 -- exact: timeout delays are exact in the DES kernel


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(4)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42
    assert env.now == 4.0  # lint: disable=SIM003 -- exact: timeout delays are exact in the DES kernel


def test_event_at_until_time_does_not_run():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(2)
        fired.append("ran")

    env.process(proc(env))
    env.run(until=2)
    assert fired == []


def test_run_until_past_time_raises():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_process_composition():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (3.0, "done")


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abc":
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter(env):
        val = yield ev
        seen.append((env.now, val))

    def fire(env):
        yield env.timeout(7)
        ev.succeed("payload")

    env.process(waiter(env))
    env.process(fire(env))
    env.run()
    assert seen == [(7.0, "payload")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def fire(env):
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(fire(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("oops")

    env.process(bad(env))
    with pytest.raises(KeyError):
        env.run()


def test_yield_non_event_raises_inside_process():
    env = Environment()

    def bad(env):
        yield 5  # type: ignore[misc]

    p = env.process(bad(env))
    with pytest.raises(RuntimeError):
        env.run()
    assert not p.ok


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(env, proc):
        yield env.timeout(3)
        proc.interrupt("stop now")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [(3.0, "stop now")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_all_of_collects_values():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = yield AllOf(env, [t1, t2])
        return sorted(result.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == ["a", "b"]
    assert env.now == 2.0  # lint: disable=SIM003 -- exact: timeout delays are exact in the DES kernel


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(1, value="fast")
        result = yield AnyOf(env, [t1, t2])
        return list(result.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == ["fast"]
    assert env.now == 1.0  # lint: disable=SIM003 -- exact: timeout delays are exact in the DES kernel


def test_empty_all_of_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return result

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(9)
    assert env.peek() == 9.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_run_out_of_events_before_until_event():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimulationError):
        env.run(until=ev)
