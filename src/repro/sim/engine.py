"""The simulation environment: clock, event queue, and run loop.

The pending-event queue has two parts (DESIGN.md §14).  Zero-delay
pushes — event ``succeed``/``fail``, resource grants, process starts —
are by far the most common scheduling operation and always carry the
current timestamp, so they go to plain FIFO deques (one per priority)
that stay sorted for free: timestamps are non-decreasing push to push
and the sequence counter is monotone.  Everything else (timeouts, and
the rare non-standard priority) goes to one binary heap.

Every entry is ``(time, priority, seq, event)`` and pops take the
smallest of the three heads in that exact tuple order, which keeps the
BLAKE2b schedule trace hash bit-identical to a single global heap.

The run loop has two forms (:meth:`Environment._run`).
``run(until=<event>)`` — what every workload and figure sweep drives —
runs a flattened loop with the pop and the callback dispatch inlined.
Everything else, :meth:`Environment.step` included, goes through one
general loop that dispatches each event through
:meth:`Environment._dispatch`, where the trace hash and the step hooks
see it.  Both pop the same entries in the same order.
"""

from __future__ import annotations

import hashlib
import os
import typing as _t
from collections import deque
from functools import partial
from heapq import heappop, heappush

from repro.sim.events import AllOf, AnyOf, Event, NamedEvent, Timeout
from repro.sim.process import Process

#: Environment variable: when truthy, every new :class:`Environment`
#: starts with trace hashing enabled (see :meth:`Environment.enable_trace_hash`).
TRACE_HASH_ENV_VAR = "REPRO_TRACE_HASH"

_QueueEntry = _t.Tuple[float, int, int, Event]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Owner of simulated time and the pending-event queue.

    Typical use::

        env = Environment()
        env.process(some_generator_function(env))
        env.run(until=10.0)

    Queue entries are ``(time, priority, seq, event)``; ``seq`` is a
    monotone tiebreaker so same-time events process in schedule order,
    which keeps runs deterministic.
    """

    #: Priority for events that must process before normal ones at the
    #: same timestamp (used internally for process-resume urgency).
    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

    __slots__ = (
        "_now",
        "_seq",
        "_active_process",
        "_step_hooks",
        "_trace",
        "svc_bus",
        "_last_msg_id",
        # -- queue components ---------------------------------------
        "_due",
        "_due_urgent",
        "_future",
        # -- scheduler statistics (see sched_stats) -----------------
        "_depth",
        "_depth_hw",
        "_events_processed",
        "_turns_in_place",
        # -- in-place turn guards (see take_turn) --------------------
        "_in_run",
        "_stop_event",
        "_multi",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Lazily-created per-environment instrumentation bus for the
        #: service runtime (see :func:`repro.svc.events.get_bus`).
        #: Lives on the environment so every service sharing a clock
        #: also shares one bus, without global registries.
        self.svc_bus: _t.Any = None
        #: Last message id issued (see :meth:`next_msg_id`).
        self._last_msg_id = 0
        #: Monotone tiebreaker, bumped inline on every push (an int
        #: increment is measurably cheaper than itertools.count on the
        #: hot scheduling path).
        self._seq = 0
        # Ready entries: pushed with the *current* timestamp, so each
        # deque is sorted by construction (non-decreasing clock,
        # monotone seq).  Urgent (priority 0) entries sort before
        # normal ones at the same instant.
        self._due: deque[_QueueEntry] = deque()
        self._due_urgent: deque[_QueueEntry] = deque()
        #: Every other entry (``heapq`` order): timeouts, and
        #: zero-delay pushes at a non-standard priority.
        self._future: list[_QueueEntry] = []
        self._depth = 0
        self._depth_hw = 0
        self._events_processed = 0
        self._turns_in_place = 0
        #: True while run() owns the loop (step() never books turns).
        self._in_run = False
        #: run(until=<Event>)'s stop event, else None.
        self._stop_event: Event | None = None
        #: True while more of the current step runs after the callback
        #: now running: an event with more than one callback is being
        #: processed (set by Event._process and the run loop), or a
        #: callback runs nested (set by Event.add_callback).
        self._multi = False
        self._active_process: Process | None = None
        #: Callables invoked (with this env) after every processed
        #: event.  Empty in normal runs; a hook or the trace hash sends
        #: run(until=<event>) to the general loop, so its flattened
        #: loop stays branch-free.
        self._step_hooks: list[_t.Callable[["Environment"], None]] = []
        self._trace: "hashlib._Hash | None" = None
        if os.environ.get(TRACE_HASH_ENV_VAR, "") not in ("", "0"):
            self.enable_trace_hash()

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds, by library convention)."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    def next_msg_id(self) -> int:
        """A message id unique within this run; the first is 1.

        Ids belong to the run, not the process: two runs of one
        (config, seed) name their messages alike, whatever ran before.
        """
        self._last_msg_id += 1
        return self._last_msg_id

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(
        self, when: float, value: _t.Any = None, after: Event | None = None
    ) -> Timeout:
        """An event firing at the *absolute* instant ``when`` (>= now).

        Not ``timeout(when - now)``: that fires at ``now + (when -
        now)``, which need not be the float ``when``.  Analytic servers
        (:meth:`repro.cluster.node.Node.compute`) chain completion
        times as ``start + seconds`` and need exactly that float on the
        queue.

        With ``after`` (an event not yet processed) the timeout is
        queued — and draws the sequence number that breaks ties among
        same-instant events — only when ``after`` is processed, as if
        whoever waits on it had been handed over to at that moment.
        ``when`` must not precede that moment either: the deferred push
        raises :class:`ValueError` out of :meth:`run` if it does.
        """
        now = self._now
        if when < now:
            raise ValueError(f"when={when} is in the past (now={now})")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event.delay = when - now
        event._ok = True
        event._value = value
        if after is None or after.callbacks is None:
            # _queue_at inlined (every idle-CPU slice comes through
            # here); the guard above is its re-check.
            self._seq += 1
            entry = (when, 1, self._seq, event)
            if when == now:
                self._due.append(entry)
            else:
                heappush(self._future, entry)
            d = self._depth + 1
            self._depth = d
            if d > self._depth_hw:
                self._depth_hw = d
        else:
            # A partial, not a closure: a closure would turn every local
            # above into a cell, for every call.
            after.callbacks.append(partial(self._queue_at, when, event))
        return event

    def _queue_at(self, when: float, event: Event, _after: Event) -> None:
        if when < self._now:
            # Only reachable through ``after``: it fired later than
            # ``when``, and queueing anyway would turn the clock back.
            raise ValueError(
                f"timeout_at(when={when}) deferred past its instant "
                f"(now={self._now})"
            )
        self._seq += 1
        entry = (when, 1, self._seq, event)
        if when == self._now:
            self._due.append(entry)
        else:
            heappush(self._future, entry)
        d = self._depth + 1
        self._depth = d
        if d > self._depth_hw:
            self._depth_hw = d

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Spawn ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """An event firing when every given event has fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """An event firing when any given event has fired."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``event`` to be processed ``delay`` from now."""
        self._seq += 1
        entry = (self._now + delay, priority, self._seq, event)
        if delay == 0.0 and priority == 1:
            self._due.append(entry)
        elif delay == 0.0 and priority == 0:
            self._due_urgent.append(entry)
        else:
            # Future, or a nonstandard priority: the deques'
            # sortedness only holds for the two canonical levels.
            heappush(self._future, entry)
        d = self._depth + 1
        self._depth = d
        if d > self._depth_hw:
            self._depth_hw = d

    def take_turn(self, kind: type, n: int = 1) -> bool:
        """Book ``n`` in-place turns (DESIGN.md §14, "In-place turns").

        The running step — a process, or a callback stage standing in
        for one — is about to wait on a zero-delay ``kind`` event that
        is already satisfied and that it alone waits on, ``n`` times in
        a row with nothing scheduled in between.  When each would
        provably be the run loop's very next pop, this books the steps
        exactly as the loop would — sequence numbers, processed-event
        count, depth high-water mark, step hooks, trace-hash lines —
        and returns True: the caller then carries on as if resumed by
        the events, without queueing them.  The conditions below hold
        for all ``n`` turns or for none, so the booking is all or
        nothing.  Returns False (booking nothing) unless

        * the caller runs as the *only* callback of the current event,
          and not nested inside another step (a callback that
          ``add_callback`` runs at once on a processed event): either
          way the rest of the step would run before the pop;
        * no same-instant entry is due, and the heap head lies after
          ``now``;
        * :meth:`run` owns the loop (not :meth:`step`), and its stop
          event has not just been processed.
        """
        if (
            self._multi
            or not self._in_run
            or self._due
            or self._due_urgent
        ):
            return False
        future = self._future
        if future and future[0][0] <= self._now:
            return False
        stop = self._stop_event
        if stop is not None and stop.callbacks is None:
            return False
        if self._depth >= self._depth_hw:
            self._depth_hw = self._depth + 1
        if self._step_hooks or self._trace is not None:
            for _ in range(n):
                self._seq += 1
                self._turns_in_place += 1
                # The step that resumed this process ends here.
                for hook in self._step_hooks:
                    hook(self)
                if self._trace is not None:
                    self._trace.update(
                        f"{self._seq}|{self._now!r}|{kind.__name__}\n".encode()
                    )
                self._events_processed += 1
            return True
        self._seq += n
        self._turns_in_place += n
        self._events_processed += n
        return True

    def _peek_entry(self) -> _QueueEntry | None:
        """The next entry in (time, priority, seq) order, not removed."""
        future = self._future
        best = future[0] if future else None
        due = self._due
        if due and (best is None or due[0] < best):
            best = due[0]
        urgent = self._due_urgent
        if urgent and (best is None or urgent[0] < best):
            best = urgent[0]
        return best

    def _pop_entry(self) -> _QueueEntry | None:
        """Remove and return the next entry, or ``None`` when empty."""
        due = self._due
        urgent = self._due_urgent
        future = self._future
        if urgent:
            src = urgent
            if due and due[0] < urgent[0]:
                src = due
            if future and future[0] < src[0]:
                head = heappop(future)
            else:
                head = src.popleft()
        elif due:
            if future and future[0] < due[0]:
                head = heappop(future)
            else:
                head = due.popleft()
        elif future:
            head = heappop(future)
        else:
            return None
        self._depth -= 1
        return head

    # -- statistics -------------------------------------------------------
    def sched_stats(self) -> dict[str, int]:
        """Point-in-time scheduler counters (all monotone except depth)."""
        return {
            "events_processed": self._events_processed,
            "queue_depth": self._depth,
            "queue_depth_hw": self._depth_hw,
            "turns_in_place": self._turns_in_place,
        }

    # -- instrumentation -------------------------------------------------
    def add_step_hook(
        self, hook: _t.Callable[["Environment"], None]
    ) -> None:
        """Run ``hook(env)`` after every processed event.

        Installing any hook sends ``run(until=<event>)`` from its
        flattened loop to the general one, so hooks cost nothing until
        the first one is registered; :meth:`take_turn` runs them
        on in-place turns too.  Tier-1 checks
        :meth:`~repro.cache.manager.BufferManager.check_invariants`
        from one (``check_invariants_every`` in ``tests/conftest.py``).
        """
        self._step_hooks.append(hook)

    def enable_trace_hash(self) -> None:
        """Start accumulating a deterministic digest of the schedule.

        Every processed event folds ``(seq, time, event identity)``
        into a BLAKE2b accumulator; two runs of the same seeded
        simulation must produce identical digests, whether they run in
        this process or in a parallel sweep worker.  Event identity is
        the ``name`` of a :class:`~repro.sim.events.NamedEvent` (a
        process, or a callback stage standing in for one) and the class
        name otherwise — no ``id()``/``hash()`` values, so the digest is
        stable across interpreter instances.
        """
        if self._trace is None:
            self._trace = hashlib.blake2b(digest_size=16)

    def trace_hash(self) -> str:
        """Hex digest of the schedule so far (requires enable_trace_hash)."""
        if self._trace is None:
            raise RuntimeError(
                "trace hashing is not enabled on this environment; call "
                f"enable_trace_hash() or set {TRACE_HASH_ENV_VAR}=1"
            )
        return self._trace.hexdigest()

    def _dispatch(self, when: float, seq: int, event: Event) -> None:
        """Process one event: advance the clock to it, fold it into the
        trace hash, run the step hooks."""
        self._now = when
        if self._trace is not None:
            ident = (
                event.name if isinstance(event, NamedEvent)
                else type(event).__name__
            )
            self._trace.update(f"{seq}|{when!r}|{ident}\n".encode())
        event._process()
        for hook in self._step_hooks:
            hook(self)

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        entry = self._peek_entry()
        return entry[0] if entry is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        entry = self._pop_entry()
        if entry is None:
            raise EmptySchedule()
        self._events_processed += 1
        self._dispatch(entry[0], entry[2], entry[3])

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event fires; returns its
          value (raising its exception if it failed).
        """
        stop_at: float | None = None
        stop_event: Event | None = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
        outer = self._in_run, self._stop_event
        self._in_run = True
        self._stop_event = stop_event
        try:
            return self._run(stop_at, stop_event)
        finally:
            self._in_run, self._stop_event = outer

    def _run(self, stop_at: float | None, stop_event: Event | None) -> _t.Any:
        """The loops of :meth:`run`, with its arguments resolved.

        Two loops.  ``run(until=<event>)`` without a step hook or the
        trace hash — what every workload and figure sweep drives — is
        the simulator's innermost loop, so it is :meth:`step` with the
        per-event method and property calls flattened out: every
        attribute load per event counts.  It inlines all of
        :meth:`_pop_entry`, keeps the processed-event count in a local
        int flushed once on exit (a local increment is several times
        cheaper than a per-event attribute read-modify-write), and runs
        an event's callbacks inline, exactly as ``Event._process``
        does: several run under ``_multi`` (see :meth:`take_turn`).
        Everything else — ``run()``, ``run(until=<time>)``, and any run
        with a step hook or the trace hash on — takes the general loop
        below, which dispatches through :meth:`_dispatch`.
        """
        if (
            stop_event is not None
            and not self._step_hooks
            and self._trace is None
        ):
            due = self._due
            urgent = self._due_urgent
            future = self._future
            n = 0
            try:
                # ``callbacks is None`` == Event.processed without the
                # property call; re-check before every event.
                while stop_event.callbacks is not None:
                    if urgent:
                        entry = urgent[0]
                        src = urgent
                        if due and due[0] < entry:
                            entry = due[0]
                            src = due
                        if future and future[0] < entry:
                            entry = heappop(future)
                        else:
                            src.popleft()
                    elif due:
                        entry = due[0]
                        if future and future[0] < entry:
                            entry = heappop(future)
                        else:
                            due.popleft()
                    elif future:
                        entry = heappop(future)
                    else:
                        raise RuntimeError(
                            "simulation ran out of events before the "
                            f"requested stop event fired: {stop_event!r}"
                        )
                    self._depth -= 1
                    n += 1
                    self._now = entry[0]
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:  # type: ignore[arg-type]
                        callbacks[0](event)
                    elif callbacks:
                        self._multi = True
                        try:
                            for callback in callbacks:
                                callback(event)
                        finally:
                            self._multi = False
            finally:
                self._events_processed += n
        else:
            while stop_event is None or stop_event.callbacks is not None:
                entry = self._peek_entry()
                if entry is None:
                    if stop_event is None:
                        return None
                    raise RuntimeError(
                        "simulation ran out of events before the "
                        f"requested stop event fired: {stop_event!r}"
                    )
                if stop_at is not None and entry[0] > stop_at:
                    self._now = stop_at
                    return None
                self._pop_entry()
                self._events_processed += 1
                self._dispatch(entry[0], entry[2], entry[3])
        assert stop_event is not None  # only run() and until=<time> return above
        if stop_event._ok:
            return stop_event._value
        raise _t.cast(BaseException, stop_event._value)
