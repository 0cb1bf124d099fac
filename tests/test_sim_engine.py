"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    ProcessKilled,
    Store,
    StoreGet,
)
from repro.sim.engine import EmptySchedule
from repro.sim.resources import StorePut


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(1.5)
        times.append(env.now)
        yield env.timeout(2.5)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.5, 4.0]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25


def test_run_until_past_raises():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 3


def test_run_until_event_propagates_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=env.process(proc(env)))


def test_run_until_unfired_event_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=never)


def test_step_on_empty_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_process_waits_on_event():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter(env):
        value = yield ev
        seen.append((env.now, value))

    def firer(env):
        yield env.timeout(7)
        ev.succeed("done")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert seen == [(7.0, "done")]


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        ev.fail(ValueError("bad"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["bad"]


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    out = []

    def proc(env):
        yield env.timeout(5)
        value = yield ev  # processed long ago
        out.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert out == [(5.0, "early")]


def test_process_waiting_on_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        log.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [(2.0, "child-result")]


def test_process_yielding_non_event_fails():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    env.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, TypeError)


def test_process_yielding_foreign_event_fails():
    env1, env2 = Environment(), Environment()

    def bad(env):
        yield env2.event()

    proc = env1.process(bad(env1))
    env1.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, ValueError)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError, match="generator"):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="wake-up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3.0, "wake-up")]


def test_interrupt_then_original_event_does_not_double_resume():
    env = Environment()
    resumed = []

    def sleeper(env):
        try:
            yield env.timeout(5)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
        yield env.timeout(100)

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert resumed == ["interrupt"]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError, match="terminated"):
        proc.interrupt()


def test_kill_terminates_and_fails_waiters():
    env = Environment()
    caught = []

    def sleeper(env):
        yield env.timeout(100)

    def killer(env, victim):
        yield env.timeout(1)
        victim.kill()

    def waiter(env, victim):
        try:
            yield victim
        except ProcessKilled:
            caught.append(env.now)

    victim = env.process(sleeper(env))
    env.process(killer(env, victim))
    env.process(waiter(env, victim))
    env.run()
    assert caught == [1.0]
    assert not victim.is_alive


def test_kill_is_idempotent():
    env = Environment()

    def sleeper(env):
        yield env.timeout(100)

    victim = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(1)
        victim.kill()
        victim.kill()  # second kill is a no-op

    env.process(killer(env))
    env.run()
    assert not victim.is_alive


def test_uncaught_interrupt_fails_process():
    env = Environment()

    def sleeper(env):
        yield env.timeout(100)

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt("die")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.triggered and not victim.ok
    assert isinstance(victim.value, Interrupt)


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_timeout_repr_and_event_repr():
    env = Environment()
    assert "Timeout" in repr(env.timeout(3))
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    env.run()
    assert "processed" in repr(ev)


def test_all_of_collects_values():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        got = yield env.all_of([t1, t2])
        results.append((env.now, sorted(got.values())))

    env.process(proc(env))
    env.run()
    assert results == [(2.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        got = yield env.all_of([])
        done.append(got)

    env.process(proc(env))
    env.run()
    assert done == [{}]


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(1, value="fast")
        got = yield env.any_of([t1, t2])
        results.append((env.now, list(got.values())))

    env.process(proc(env))
    env.run()
    assert results == [(1.0, ["fast"])]


def test_condition_fails_if_member_fails():
    env = Environment()
    outcome = []

    def firer(env, ev):
        yield env.timeout(1)
        ev.fail(KeyError("nope"))

    def proc(env, ev):
        try:
            yield env.all_of([ev, env.timeout(10)])
        except KeyError:
            outcome.append(env.now)

    ev = env.event()
    env.process(firer(env, ev))
    env.process(proc(env, ev))
    env.run()
    assert outcome == [1.0]


def test_condition_mixed_environment_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.event(), env2.event()])


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4
    env.run()
    assert env.peek() == float("inf")


def test_deterministic_replay():
    """Two identical runs produce identical event interleavings."""

    def scenario():
        env = Environment()
        trace = []

        def worker(env, tag, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((env.now, tag, i))

        for tag, delay in [("a", 1.0), ("b", 1.0), ("c", 0.5)]:
            env.process(worker(env, tag, delay))
        env.run()
        return trace

    assert scenario() == scenario()


# ---------------------------------------------------------------------------
# Event queue: due deques + one heap (DESIGN.md §14), on every run loop
# ---------------------------------------------------------------------------


def _storm(env):
    """Seed ``env`` with a storm of timeouts, same-instant ``succeed``s,
    urgent interrupts and deferred ``timeout_at`` chains.

    Returns ``(created, fired)``: ``created`` gets ``(time, priority,
    tag)`` the moment each logged entry is pushed, ``fired`` the same
    triple when it is processed.  Tags rise with engine sequence
    numbers (each is drawn right beside its push), so ``sorted(created)``
    is exactly the order a correct queue must pop.  An event's second
    and third callbacks log ``(time, priority, tag, k)``, which sorts
    right after its first.
    """
    import itertools
    import random

    rng = random.Random(0xC0FFEE)
    tags = itertools.count()
    created = []
    fired = []

    def book(when, priority=1):
        entry = (when, priority, next(tags))
        created.append(entry)
        return entry

    def watch(ev, entry):
        ev.callbacks.append(lambda _e: fired.append(entry))

    def sleeper(env):
        # Waits on events nobody fires, so only interrupts resume it.
        while True:
            try:
                yield env.event()
            except Interrupt as intr:
                fired.append(intr.cause)

    def spawn(env, victim):
        for _ in range(40):
            for _ in range(rng.randrange(1, 40)):
                delay = rng.choice(
                    (
                        0.0,  # due deque
                        rng.random() * 0.01,  # near future
                        rng.random() * 5.0,  # far future
                        round(rng.random(), 2),  # deliberate ties
                    )
                )
                ev = env.timeout(delay)
                watch(ev, book(env.now + delay))
            # Two timeouts for one instant; the first one's callback
            # succeeds a third event while the second is still queued
            # for that instant, so it must come after the second.
            delay = rng.random() * 0.01
            first = env.timeout(delay)
            watch(first, book(env.now + delay))
            second = env.timeout(delay)
            watch(second, book(env.now + delay))
            late = env.event()
            first.callbacks.append(
                lambda _e, late=late: watch(
                    late.succeed(), book(env.now)
                )
            )
            # Two or three callbacks on one event: run(until=<event>)
            # runs these inline under _multi; run(), run(until=<t>),
            # step() and the instrumented loop use Event._process.
            for _ in range(rng.randrange(1, 4)):
                delay = rng.choice((0.0, rng.random() * 0.01))
                ev = env.timeout(delay)
                entry = book(env.now + delay)
                watch(ev, entry)
                for k in range(1, rng.randrange(2, 4)):
                    created.append(entry + (k,))
                    watch(ev, entry + (k,))
            # A chain queued link by link: each timeout_at draws its
            # sequence number only when the one before it fires.
            when = env.now + rng.random() * 0.01
            link = env.timeout_at(when)
            watch(link, book(when))
            for _ in range(rng.randrange(1, 4)):
                when += rng.choice((0.0, rng.random() * 0.01))
                nxt = env.timeout_at(when, after=link)
                link.callbacks.append(
                    lambda _e, nxt=nxt, when=when: watch(nxt, book(when))
                )
                link = nxt
            # An urgent resume, ahead of everything else at this instant.
            victim.interrupt(book(env.now, env.PRIORITY_URGENT))
            yield env.timeout(rng.random() * 0.05)

    env.process(spawn(env, env.process(sleeper(env))))
    return created, fired


def _step_all(env):
    try:
        while True:
            env.step()
    except EmptySchedule:
        pass


def _run_hooked(env):
    env.add_step_hook(lambda _env: None)
    env.run()


def test_randomized_timeout_storm_fires_in_order():
    """Differential check of the deque/heap queue against a plain
    sorted reference, on both run loops by every way in: the flattened
    ``run(until=<event>)`` loop, and the general loop that ``run()``,
    ``run(until=<time>)``, ``step()`` and a step hook take.  Every way
    must pop in exact (time, priority, seq) order, whichever structure
    each entry sat in."""
    loops = {
        "run()": lambda env: env.run(),
        "run(until=<event>)": lambda env: env.run(until=env.timeout(100.0)),
        "run(until=<t>)": lambda env: env.run(until=100.0),
        "step()": _step_all,
        "run() + hook": _run_hooked,
    }
    for name, drive in loops.items():
        env = Environment()
        created, fired = _storm(env)
        drive(env)
        assert len(fired) == len(created) > 1000, name
        assert fired == sorted(created), name


# -- in-place turns (DESIGN.md §14) -----------------------------------------


def _turn_taker(env, log, wait_on=None):
    """A process that asks for an in-place turn once it is resumed."""
    if wait_on is None:
        yield env.timeout(1)
    else:
        yield wait_on
    log.append(env.take_turn(StoreGet))


def test_take_turn_books_the_step_it_skips():
    env = Environment()
    log = []
    env.process(_turn_taker(env, log))
    env.run()
    assert log == [True]
    stats = env.sched_stats()
    # process start, the timeout, the booked turn, the process's exit
    assert stats["events_processed"] == 4
    assert stats["turns_in_place"] == 1


def _store_run(in_place, hooks):
    """Three timed gets from a stocked store, either yielded or taken
    in place; returns the schedule's observable footprint."""
    env = Environment()
    env.enable_trace_hash()
    calls = []
    if hooks:
        env.add_step_hook(lambda e: calls.append(e._events_processed))
    store = Store(env)
    for item in "abc":
        store.put_nowait(item)
    got = []

    def taker(env):
        for _ in range(3):
            yield env.timeout(1)
            if in_place and env.take_turn(StoreGet):
                got.append(store.get_nowait())
            else:
                got.append((yield store.get()))
        yield env.timeout(1)

    env.process(taker(env))
    env.run()
    stats = env.sched_stats()
    turns = stats.pop("turns_in_place")
    return (env.trace_hash(), stats, got, len(calls)), turns


@pytest.mark.parametrize("hooks", [False, True])
def test_in_place_turns_leave_the_schedule_bit_identical(hooks):
    queued, no_turns = _store_run(False, hooks)
    in_place, turns = _store_run(True, hooks)
    assert (no_turns, turns) == (0, 3)
    assert in_place == queued
    if hooks:
        # one hook call per processed event, booked turns included
        assert in_place[3] == in_place[1]["events_processed"]


def test_take_turn_refuses_under_step():
    env = Environment()
    log = []
    env.process(_turn_taker(env, log))
    while not log:
        env.step()
    assert log == [False]
    assert env.sched_stats()["turns_in_place"] == 0


@pytest.mark.parametrize("stop_on_it", [True, False])
def test_take_turn_refuses_after_the_stop_event(stop_on_it):
    env = Environment()
    log = []
    ev = env.event()
    trigger = env.timeout(1)
    trigger.callbacks.append(lambda _t: ev.succeed())
    env.process(_turn_taker(env, log, wait_on=ev))
    # run(until=ev) returns the moment ev is processed: the resumed
    # process's next step would never be popped by this run.
    env.run(until=ev if stop_on_it else None)
    assert log == [not stop_on_it]


def test_take_turn_refuses_with_a_same_instant_entry_due():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1)
        env.timeout(0)  # due now, ahead of the turn
        log.append(env.take_turn(StoreGet))
        yield env.timeout(1)
        # a future-structure entry at the current instant counts too
        env.schedule(env.event(), delay=0.0, priority=2)
        log.append(env.take_turn(StoreGet))

    env.process(proc(env))
    env.run()
    assert log == [False, False]


def test_take_turn_refuses_inside_a_multi_callback_event():
    # under each run loop: run(), run(until=<event>), run(until=<t>)
    for until in (None, "event", 10.0):
        env = Environment()
        log = []
        ev = env.timeout(1)
        env.process(_turn_taker(env, log, wait_on=ev))
        env.process(_turn_taker(env, log, wait_on=ev))
        env.run(until=env.timeout(5) if until == "event" else until)
        # the first waiter would run ahead of the second; the second is
        # refused by the same flag (it cannot see that it is the last)
        assert log == [False, False], until


def test_take_turn_refuses_without_an_active_process():
    """Outside run() nothing may book a turn, process or not.  A
    callback stage may book one inside run() (below), so what this
    checks now is the run-owns-the-loop guard."""
    env = Environment()
    assert env.take_turn(StoreGet) is False


def _relay_run(in_place, hooks):
    """A getter waits on a store; callback stages put an item at t = 1,
    2 and 3 (the last with a same-instant timeout due, so its turn is
    refused), each firing its own step as the put's callback would.
    Returns the schedule's observable footprint and the turns taken."""
    env = Environment()
    env.enable_trace_hash()
    calls = []
    if hooks:
        env.add_step_hook(lambda e: calls.append(e._events_processed))
    store = Store(env)
    got = []
    admitted = []

    def getter(env):
        for _ in range(3):
            got.append(((yield store.get()), env.now))

    def stage(item):
        def on_admitted(_event):
            # the sequence number it sees, and one event of its own
            admitted.append((item, env.now, env._seq))
            env.timeout(0.5)

        def arrive(_event):
            if in_place and store.put_in_place(item):
                on_admitted(None)
            else:
                store.put(item).callbacks.append(on_admitted)

        return arrive

    env.process(getter(env))
    for t, item in ((1, "a"), (2, "b"), (3, "c")):
        env.timeout(t).callbacks.append(stage(item))
    env.timeout(3)
    env.run()
    stats = env.sched_stats()
    turns = stats.pop("turns_in_place")
    return (env.trace_hash(), stats, got, admitted, len(calls)), turns


@pytest.mark.parametrize("hooks", [False, True])
def test_a_callback_stages_turn_is_booked_as_the_popped_event(hooks):
    """A stage that takes its put's turn in place books the step the
    loop would have popped: the same seq (and so the same trace-hash
    line and the getter's later seq), count, depth high-water mark and
    step-hook calls."""
    queued, no_turns = _relay_run(False, hooks)
    in_place, turns = _relay_run(True, hooks)
    assert (no_turns, turns) == (0, 2)
    assert in_place == queued
    assert [item for item, _t in in_place[2]] == ["a", "b", "c"]
    if hooks:
        assert in_place[4] == in_place[1]["events_processed"]


def test_take_turn_refuses_a_nested_callback():
    """A late callback runs at once, inside the step that added it: the
    rest of that step would run after its booked turn, so it is
    refused, and the enclosing stage may still take its own turn."""
    env = Environment()
    log = []
    fired = env.event()
    fired.succeed()

    def top(_event):
        fired.add_callback(
            lambda _e: log.append(("nested", env.take_turn(StorePut)))
        )
        log.append(("top", env.take_turn(StorePut)))

    env.timeout(1).callbacks.append(top)
    env.run()
    assert log == [("nested", False), ("top", True)]
