"""Edge-case tests for condition events, defusing and failure handling."""

import pytest

from repro.sim import AllOf, AnyOf, Environment
from repro.sim.events import Condition


def test_any_of_with_failed_event_propagates():
    env = Environment()
    ok = env.timeout(5, value="slow")
    bad = env.event()
    result = []

    def waiter(env):
        try:
            yield AnyOf(env, [ok, bad])
        except RuntimeError as exc:
            result.append(str(exc))

    def fire(env):
        yield env.timeout(1)
        bad.fail(RuntimeError("nope"))

    env.process(waiter(env))
    env.process(fire(env))
    env.run()
    assert result == ["nope"]


def test_all_of_mixed_already_processed():
    env = Environment()
    early = env.timeout(1, value="early")
    late = env.timeout(3, value="late")
    collected = []

    def proc(env):
        yield env.timeout(2)  # `early` has fully processed by now
        got = yield AllOf(env, [early, late])
        collected.append(sorted(got.values()))

    env.process(proc(env))
    env.run()
    assert collected == [["early", "late"]]


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    t = env2.timeout(1)
    with pytest.raises(ValueError):
        AllOf(env1, [t])


def test_defused_failure_does_not_crash_run():
    env = Environment()
    ev = env.event()

    def fire(env):
        yield env.timeout(1)
        exc = RuntimeError("handled elsewhere")
        ev.fail(exc)
        ev.defuse()

    env.process(fire(env))
    env.run()  # must not raise


def test_nested_conditions():
    env = Environment()

    def proc(env):
        a = env.timeout(1, value="a")
        b = env.timeout(2, value="b")
        c = env.timeout(3, value="c")
        inner = AllOf(env, [a, b])
        outer = AnyOf(env, [inner, c])
        got = yield outer
        return env.now, len(got)

    p = env.process(proc(env))
    env.run()
    t, n = p.value
    assert t == 2.0  # inner AllOf fires before c


def test_condition_value_snapshot_is_consistent():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value=1)
        t2 = env.timeout(1, value=2)
        got = yield AllOf(env, [t1, t2])
        return sorted(got.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == [1, 2]


def test_process_return_value_via_condition():
    env = Environment()

    def child(env, delay, val):
        yield env.timeout(delay)
        return val

    def parent(env):
        c1 = env.process(child(env, 1, "x"))
        c2 = env.process(child(env, 2, "y"))
        got = yield AllOf(env, [c1, c2])
        return sorted(v for v in got.values())

    p = env.process(parent(env))
    env.run()
    assert p.value == ["x", "y"]
