"""Event primitives for the discrete-event engine.

An :class:`Event` is the unit of synchronisation: processes yield
events to suspend, and resuming happens when the event *fires* (is
scheduled and then processed by the environment's run loop).  Events
carry either a value (on success) or an exception (on failure); a
failed event re-raises its exception inside every process waiting on
it, which is how errors propagate through simulated daemons.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment


class _Pending:
    """Sentinel for 'event has no value yet'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> *triggered* (value set, queued on the event
    heap) -> *processed* (callbacks ran).  ``succeed``/``fail`` may be
    called exactly once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed.
        #: Set to ``None`` once processed (late adders run immediately).
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: _t.Any = PENDING
        self._ok: bool | None = None

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued (or processed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful when triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: _t.Any = None) -> "Event":
        """Fire the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): zero-delay normal-priority pushes
        # are the single most common scheduling operation; they go
        # straight to the sorted-by-construction due deque.
        env = self.env
        env._seq += 1
        env._due.append((env._now, 1, env._seq, self))
        d = env._depth + 1
        env._depth = d
        if d > env._depth_hw:
            env._depth_hw = d
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception.

        Waiting processes will see ``exception`` raised at their yield
        point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        env._due.append((env._now, 1, env._seq, self))
        d = env._depth + 1
        env._depth = d
        if d > env._depth_hw:
            env._depth_hw = d
        return self

    # -- hookup ----------------------------------------------------------
    def add_callback(self, callback: _t.Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event already ran its callbacks, the callback executes
        immediately; this keeps late waiters (a process yielding an
        already-fired event) correct.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks.  Called exactly once by the environment."""
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        if len(callbacks) == 1:
            callbacks[0](self)
        elif callbacks:
            # A process resumed here is not the event's only callback:
            # the flag keeps Environment.take_turn from running it
            # ahead of the callbacks after it.
            env = self.env
            env._multi = True
            try:
                for callback in callbacks:
                    callback(self)
            finally:
                env._multi = False

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units in the future."""

    __slots__ = ("delay",)

    def __init__(
        self, env: "Environment", delay: float, value: _t.Any = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + env.schedule: a Timeout is born
        # triggered, so skip the PENDING dance entirely.
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        env._seq += 1
        if delay == 0.0:
            env._due.append((env._now, 1, env._seq, self))
        elif env._nf is None:
            # Fast path: no other future entry pending, so this one is
            # trivially the minimum (common at low multiprogramming).
            env._nf = (env._now + delay, 1, env._seq, self)
        else:
            env._push_future((env._now + delay, 1, env._seq, self))
        d = env._depth + 1
        env._depth = d
        if d > env._depth_hw:
            env._depth_hw = d

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Timer(Event):
    """A reschedulable timeout: one event object, re-armed many times.

    A :class:`Timeout` is single-shot — every deadline change costs a
    fresh allocation and the abandoned event still fires.  A ``Timer``
    instead supports ``cancel()`` + ``arm()`` on the same object, which
    is what an analytic model such as ``QueuedDiskModel`` needs: the
    queue's contents change, the predicted next completion moves, and
    the one pending timer follows it.

    Cancellation is *lazy*: the heap entry of a cancelled or superseded
    arm stays queued and is discarded as a no-op when it pops (a heap
    cannot cheaply remove an interior entry).  Correctness relies on
    two facts: an entry only fires when the timer is currently armed
    *for exactly the popped timestamp*, and :meth:`arm` never queues a
    second entry for a deadline that already has one pending — so a
    cancel + re-arm to the same instant reuses the queued entry instead
    of racing it.  Every push goes through the environment's monotone
    sequence counter, so tie-breaking against other same-time events is
    deterministic run over run.

    Firing calls ``on_fire(timer)``; the timer does not use the
    ``succeed``/callback protocol of one-shot events and must not be
    ``yield``-ed by a process (arm a fresh :class:`Timeout` instead).
    After firing the timer is disarmed and may be re-armed immediately,
    including from inside ``on_fire``.

    One observable consequence of lazy cancellation: a stale entry
    keeps the event heap non-empty until its old deadline, so a
    ``run()`` to exhaustion may advance the clock past the last *real*
    event.  Runs that stop on an event or at a time are unaffected.
    """

    __slots__ = ("on_fire", "_deadline", "_armed", "_queued")

    def __init__(
        self,
        env: "Environment",
        on_fire: _t.Callable[["Timer"], None],
    ) -> None:
        super().__init__(env)
        self.on_fire = on_fire
        self._deadline = 0.0
        self._armed = False
        #: Timestamps with a heap entry pending for this timer.  At
        #: most one per distinct deadline; usually zero or one entries
        #: total, so a list beats a set.
        self._queued: list[float] = []

    # -- state inspection --------------------------------------------------
    @property
    def armed(self) -> bool:
        """True while a fire is scheduled."""
        return self._armed

    @property
    def deadline(self) -> float:
        """The pending fire time (meaningless unless :attr:`armed`)."""
        return self._deadline

    # -- arming ------------------------------------------------------------
    def arm(self, delay: float) -> None:
        """(Re-)schedule the fire ``delay`` time units from now.

        Re-arming an armed timer supersedes the previous deadline
        without allocating anything; the stale heap entry (if its
        timestamp differs) is discarded when it pops.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.arm_at(self.env._now + delay)

    def arm_at(self, deadline: float) -> None:
        """(Re-)schedule the fire at absolute time ``deadline``."""
        env = self.env
        if deadline < env._now:
            raise ValueError(
                f"deadline {deadline} is in the past (now={env._now})"
            )
        queued = self._queued
        # Stale-entry accounting: a queued entry is *live* iff it is
        # the armed deadline.  Superseding an armed deadline strands
        # its entry; re-arming onto an already-queued (stale) deadline
        # revives one.  The environment compacts when stale entries
        # dominate (see Environment._compact_futures).
        was_live = self._armed and self._deadline == deadline
        if self._armed and self._deadline != deadline and self._deadline in queued:
            env._note_stale_timer()
        self._armed = True
        self._deadline = deadline
        if deadline in queued:
            if not was_live and env._stale_timers > 0:
                env._stale_timers -= 1
        else:
            queued.append(deadline)
            env._seq += 1
            if deadline == env._now:
                env._due.append((deadline, 1, env._seq, self))
            else:
                env._push_future((deadline, 1, env._seq, self))
            d = env._depth + 1
            env._depth = d
            if d > env._depth_hw:
                env._depth_hw = d

    def cancel(self) -> None:
        """Unschedule the pending fire (no-op when not armed)."""
        if self._armed:
            env = self.env
            env._timers_cancelled += 1
            if self._deadline in self._queued:
                env._note_stale_timer()
        self._armed = False

    # -- engine hook ---------------------------------------------------------
    def _process(self) -> None:
        # One queued entry (the one for the current instant) has
        # popped; it fires only if it is still the armed deadline.
        env = self.env
        self._queued.remove(env._now)
        if self._armed and self._deadline == env._now:
            self._armed = False
            self.on_fire(self)
        elif env._stale_timers > 0:
            # A stale entry drained on its own; it no longer counts
            # toward the compaction trigger.  (Clamped: entries that
            # sat in the due deque survive compactions, which only
            # sweep the future structures, so the counter may already
            # have been reset.)
            env._stale_timers -= 1

    def __repr__(self) -> str:
        state = f"armed t={self._deadline}" if self._armed else "idle"
        return f"<Timer {state} at {id(self):#x}>"


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` is whatever the interrupter passed along (e.g. a reason
    string or a wakeup token for the harvester thread).
    """

    @property
    def cause(self) -> _t.Any:
        """Whatever the interrupter passed along."""
        return self.args[0] if self.args else None


class Condition(Event):
    """Composite event over several sub-events.

    Fires when ``evaluate`` says the set of triggered sub-events is
    sufficient.  The value is a dict mapping each *triggered* sub-event
    to its value, in trigger order.  If any sub-event fails, the
    condition fails with the same exception.
    """

    __slots__ = ("events", "_evaluate", "_n_triggered")

    def __init__(
        self,
        env: "Environment",
        evaluate: _t.Callable[[int, int], bool],
        events: _t.Sequence[Event],
    ) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._evaluate = evaluate
        self._n_triggered = 0
        for event in self.events:
            if event.env is not env:
                raise ValueError("all events must share one environment")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _collect_values(self) -> dict[Event, _t.Any]:
        # Only *processed* events count as having happened: a Timeout
        # carries its value from construction, so `triggered` alone
        # would leak values of timeouts that have not fired yet.
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._n_triggered += 1
        if not event.ok:
            assert isinstance(event.value, BaseException)
            self.fail(event.value)
        elif self._evaluate(len(self.events), self._n_triggered):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Fires when *all* sub-events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Sequence[Event]) -> None:
        super().__init__(env, lambda total, done: done == total, events)


class AnyOf(Condition):
    """Fires as soon as *any* sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Sequence[Event]) -> None:
        super().__init__(env, lambda total, done: done >= 1, events)
