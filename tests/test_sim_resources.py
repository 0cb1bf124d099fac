"""Unit tests for Resource / Lock / Store primitives."""

import pytest

from repro.sim import Environment, Lock, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def proc(env, tag):
        req = res.request()
        yield req
        grants.append((env.now, tag))
        yield env.timeout(10)
        res.release(req)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    # a and b at t=0, c only after one releases at t=10
    assert grants == [(0.0, "a"), (0.0, "b"), (10.0, "c")]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(env, tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    for tag in range(6):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4, 5]


def test_request_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)
        # released here

    env.process(proc(env))
    env.run()
    assert res.count == 0
    assert res.queue_length == 0


def test_release_unqueued_request_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # idempotent

    env.process(proc(env))
    env.run()
    assert res.count == 0


def test_cancel_waiting_request_dequeues():
    env = Environment()
    res = Resource(env, capacity=1)
    got_second = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    def canceller(env):
        yield env.timeout(1)
        req = res.request()  # queued behind holder
        req.cancel()
        got_second.append("cancelled")

    def third(env):
        yield env.timeout(2)
        req = res.request()
        yield req
        got_second.append(("granted", env.now))
        res.release(req)

    env.process(holder(env))
    env.process(canceller(env))
    env.process(third(env))
    env.run()
    assert got_second == ["cancelled", ("granted", 5.0)]


def test_lock_mutual_exclusion():
    env = Environment()
    lock = Lock(env)
    inside = []
    max_inside = []

    def proc(env, tag):
        with lock.request() as req:
            yield req
            inside.append(tag)
            max_inside.append(len(inside))
            yield env.timeout(1)
            inside.remove(tag)

    for tag in range(4):
        env.process(proc(env, tag))
    env.run()
    assert max(max_inside) == 1
    assert lock.locked is False


def test_store_fifo_roundtrip():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [item for _, item in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(4)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(4.0, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")  # blocks until consumer takes "a"
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("put-a", 0.0), ("got", "a", 5.0), ("put-b", 5.0)]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len_and_items_snapshot():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put(1)
        yield store.put(2)

    env.process(producer(env))
    env.run()
    assert len(store) == 2
    assert store.items == (1, 2)


def test_store_many_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1)
        for i in range(3):
            yield store.put(i)

    for tag in ("g0", "g1", "g2"):
        env.process(consumer(env, tag))
    env.process(producer(env))
    env.run()
    assert got == [("g0", 0), ("g1", 1), ("g2", 2)]


# ---------------------------------------------------------------------------
# Resource.acquire_now (SwitchedFabric.fast_transmit, DESIGN.md §14)
# ---------------------------------------------------------------------------


def test_acquire_now_grants_idle_capacity_without_events():
    env = Environment()
    res = Resource(env, capacity=1)
    depth_before = env.sched_stats()["queue_depth"]
    grant = res.acquire_now()
    assert grant is not None
    # Synchronous grant: nothing was scheduled.
    assert env.sched_stats()["queue_depth"] == depth_before
    assert res.acquire_now() is None  # at capacity
    res.release(grant)
    again = res.acquire_now()
    assert again is not None
    res.release(again)


def test_acquire_now_refuses_while_requests_wait():
    """FIFO fairness: a synchronous grant must never jump the queue."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        res.release(req)
        order.append(("released", env.now))

    def waiter(env):
        req = res.request()
        yield req
        order.append(("waiter", env.now))
        res.release(req)

    env.process(holder(env))
    env.process(waiter(env))

    def prober(env):
        yield env.timeout(0.5)
        order.append(("probe-held", res.acquire_now() is None))
        yield env.timeout(1.0)  # after release: the waiter must win
        order.append(("probe-after", res.acquire_now() is not None))

    env.process(prober(env))
    env.run()
    assert ("probe-held", True) in order
    assert ("waiter", 1.0) in order
    assert ("probe-after", True) in order


def test_acquire_now_respects_multi_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    first = res.acquire_now()
    second = res.acquire_now()
    assert first is not None and second is not None
    assert res.acquire_now() is None
    res.release(first)
    assert res.acquire_now() is not None


def test_store_get_nowait_takes_the_head_item():
    env = Environment()
    store = Store(env)
    with pytest.raises(RuntimeError):
        store.get_nowait()
    store.put_nowait("a")
    store.put_nowait("b")
    assert store.get_nowait() == "a"
    assert store.items == ("b",)


def test_store_get_on_a_stocked_store_fires_without_queueing():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    put = store.put("b")  # full: queues behind "a"
    got = store.get()
    # the get takes "a" and the freed slot admits "b" at once
    assert got.triggered and got.value == "a"
    assert put.triggered
    assert store.items == ("b",)
    again = store.get()
    assert again.value == "b"
    assert store.items == ()
