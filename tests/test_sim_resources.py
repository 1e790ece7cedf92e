"""Tests for the FIFO store the event engine's client inboxes use."""

from repro.sim import Environment, Store
from tests.test_sim_core import DispatchCounter


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_put_without_getter_dispatches_no_event():
    """A put nobody waits on only buffers the item: no event reaches the
    kernel, so the run dispatches nothing at all."""
    env = Environment()
    dispatched = DispatchCounter(env)
    store = Store(env)
    puts = [store.put(i) for i in range(3)]
    env.run()
    assert dispatched.count == 0
    assert puts == [None, None, None]
    assert store.items == [0, 1, 2]


def test_waiting_getters_are_served_fifo_at_the_put_instant():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item, env.now))

    def producer():
        yield env.timeout(2.0)
        for item in "xyz":
            store.put(item)

    for tag in "abc":
        env.process(consumer(tag), name=tag)
    env.process(producer())
    env.run()
    assert got == [("a", "x", 2.0), ("b", "y", 2.0), ("c", "z", 2.0)]
    assert store.items == []
