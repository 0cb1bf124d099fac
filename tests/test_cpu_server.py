"""The node CPU as an analytic FIFO server (DESIGN.md §14, "event diet").

``Node.compute`` reserves ``[start, start + seconds)`` on one
busy-until float and sleeps on a single absolute-time timeout, which
a queued caller puts on the event queue when the slice ahead of it
completes.  The ``Resource``-based implementation it replaced is kept
*here* as the oracle: every completion time must be equal to the last
bit, not approximately.
"""

import random

import pytest

from repro.cluster.config import CostModel
from repro.cluster.node import Node
from repro.net import Network
from repro.sim import Environment, ProcessKilled, Resource


def _node(env):
    return Node(env, "n0", Network(env), CostModel())


def _oracle_compute(env, cpu, seconds):
    """The pre-diet ``Node.compute``: request, grant event, timeout."""
    with cpu.request() as req:
        yield req
        yield env.timeout(seconds)


def _scripts(rng, n_procs, steps):
    """Per process: [(think, hold), ...].

    Half the thinks are zero, so processes re-arrive at the instant
    they (or a rival) finish and queues build up; every non-zero
    duration is a distinct random float, so a completion never ties to
    the bit with an unrelated timer *created in the very instant its
    slice starts* — the one tie the implementations may break
    differently (DESIGN.md §14; ties with timers created at any other
    instant are covered by the test below).
    """
    return [
        [
            (rng.choice([0.0, rng.random() * 2e-3]), rng.random() * 1e-3)
            for _ in range(steps)
        ]
        for _ in range(n_procs)
    ]


def _run(scripts, compute_factory, initial_time):
    env = Environment(initial_time)
    compute = compute_factory(env)
    done = []

    def proc(pid, script):
        for step, (think, hold) in enumerate(script):
            if think:
                yield env.timeout(think)
            yield from compute(hold)
            done.append((pid, step, env.now))

    for pid, script in enumerate(scripts):
        env.process(proc(pid, script), name=f"p{pid}")
    env.run()
    return done, env.sched_stats()["events_processed"]


def _new(env):
    return _node(env).compute


def _old(env):
    cpu = Resource(env, capacity=1)
    return lambda seconds: _oracle_compute(env, cpu, seconds)


@pytest.mark.parametrize("n_procs", range(1, 9))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_completion_times_equal_resource_oracle(n_procs, seed):
    rng = random.Random(1000 * seed + n_procs)
    scripts = _scripts(rng, n_procs, steps=40)
    initial_time = rng.choice([0.0, 0.1, 12345.678])
    got, got_events = _run(scripts, _new, initial_time)
    want, want_events = _run(scripts, _old, initial_time)
    # ``==`` on floats, on purpose: same instants, same completion order
    assert got == want
    # one timeout per hold instead of request + grant + timeout
    holds = sum(len(s) for s in scripts)
    assert want_events - got_events == holds


@pytest.mark.parametrize("factory", [_new, _old], ids=["analytic", "oracle"])
def test_tie_with_a_timer_created_before_the_slice_starts(factory):
    """The rw_coherent seed-2 shape: an iod's loopback timeout and a
    queued segment's completion land on the same float.  Creation order
    must decide — the timer (made while the slice was still queued)
    first — although the segment *called* ``compute`` before it."""
    env = Environment()
    compute = factory(env)
    order = []

    def holder():
        yield from compute(0.25)

    def waiter():
        yield from compute(0.5)  # queued: runs [0.25, 0.75)
        order.append("waiter")

    def timer():
        yield env.timeout(0.125)
        yield env.timeout(0.625)  # created at 0.125, fires at 0.75 too
        order.append("timer")

    for body in (holder, waiter, timer):
        env.process(body(), name=body.__name__)
    env.run()
    assert env.now == 0.75
    assert order == ["timer", "waiter"]


def test_same_instant_arrivals_are_served_in_call_order():
    env = Environment()
    node = _node(env)
    order = []

    def proc(pid):
        yield from node.compute(1e-3)
        order.append((pid, env.now))

    for pid in range(5):
        env.process(proc(pid), name=f"p{pid}")
    env.run()
    assert [pid for pid, _ in order] == [0, 1, 2, 3, 4]
    times = [t for _, t in order]
    expect, t = [], 0.0
    for _ in range(5):
        t = t + 1e-3  # the chain the Resource grants computed
        expect.append(t)
    assert times == expect


def test_idle_cpu_starts_at_now_not_at_the_stale_free_time():
    env = Environment()
    node = _node(env)

    def proc():
        yield from node.compute(1e-3)
        yield env.timeout(1.0)
        yield from node.compute(2e-3)

    env.run(until=env.process(proc()))
    assert env.now == (1e-3 + 1.0) + 2e-3
    assert node.cpu_free_at == env.now
    assert node.cpu_idle


def test_zero_and_negative_holds():
    env = Environment()
    node = _node(env)
    assert list(node.compute(0)) == []  # no event, no reservation
    assert node.cpu_free_at == 0.0
    with pytest.raises(ValueError):
        list(node.compute(-1e-6))


def test_killed_while_queued_keeps_its_slice_reserved():
    """Documented caveat: a slice is reserved at call time and nothing
    reclaims it.  (The Resource model dropped a dead waiter from the
    queue; no daemon in the tree is killed mid-compute and then
    outlived by CPU-bound work, so simulated results cannot differ.)"""
    env = Environment()
    node = _node(env)
    finished = {}

    def proc(pid, hold):
        yield from node.compute(hold)
        finished[pid] = env.now

    env.process(proc("a", 1e-3), name="a")
    victim = env.process(proc("b", 5e-3), name="b")
    env.process(proc("c", 1e-3), name="c")

    def killer():
        yield env.timeout(0.5e-3)
        victim.kill()

    env.process(killer(), name="killer")
    env.run()
    assert isinstance(victim.value, ProcessKilled)
    assert "b" not in finished
    assert finished["a"] == 1e-3
    assert finished["c"] == (1e-3 + 5e-3) + 1e-3  # b's slice still served


def test_timeout_at_fires_at_the_exact_float_and_rejects_the_past():
    env = Environment(0.1)
    when = 0.1 + 0.2  # 0.30000000000000004
    seen = []

    def proc():
        yield env.timeout(0.05)
        yield env.timeout_at(when, value="v")
        seen.append(env.now)
        yield env.timeout_at(env.now)  # now itself is legal
        seen.append(env.now)

    env.run(until=env.process(proc()))
    assert seen == [when, when]
    with pytest.raises(ValueError):
        env.timeout_at(env.now - 1e-9)


def test_timeout_at_after_is_queued_when_its_predecessor_is_processed():
    env = Environment()
    first = env.timeout(1.0)
    chained = env.timeout_at(3.0, after=first)
    rival = env.timeout(3.0)  # created later, but queued earlier
    assert env.sched_stats()["queue_depth"] == 2  # chained not queued yet
    fired = []
    chained.callbacks.append(lambda _e: fired.append(("chained", env.now)))
    rival.callbacks.append(lambda _e: fired.append(("rival", env.now)))
    env.run(until=2.0)
    assert env.sched_stats()["queue_depth"] == 2  # rival + chained now
    env.run()
    assert fired == [("rival", 3.0), ("chained", 3.0)]
    # a processed predecessor means "queue now"
    assert env.timeout_at(4.0, after=first) is not None
    assert env.sched_stats()["queue_depth"] == 1
