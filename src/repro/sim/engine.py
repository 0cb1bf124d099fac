"""The simulation environment: clock, event queue, and run loop.

The pending-event queue is split by *where in time* an entry lands
(DESIGN.md §14).  Zero-delay pushes — event ``succeed``/``fail``,
resource grants, process starts — are by far the most common scheduling
operation and always carry the current timestamp, so they go to plain
FIFO deques (one per priority) that stay sorted for free: timestamps
are non-decreasing push to push and the sequence counter is monotone.
Future entries (timeouts, timer re-arms) go to a 256-bucket calendar
wheel of ~244 µs buckets covering a 62.5 ms horizon — wide enough for
every latency constant in :class:`~repro.cluster.config.CostModel`,
from the 5 µs block lookup to the 30 ms flush period — with a binary
heap fallback for entries beyond the horizon.  A one-entry buffer
always holds the earliest future entry, so the hot pop only compares
three component heads.

Every entry is ``(time, priority, seq, event)`` and pops follow that
exact tuple order, which keeps the BLAKE2b schedule trace hash
bit-identical to the single-heap implementation this replaced.
"""

from __future__ import annotations

import hashlib
import os
import typing as _t
from bisect import insort
from collections import deque
from heapq import heappop, heappush

from repro.sim.events import AllOf, AnyOf, Event, Timeout, Timer
from repro.sim.process import Process

#: Environment variable: when truthy, every new :class:`Environment`
#: starts with trace hashing enabled (see :meth:`Environment.enable_trace_hash`).
TRACE_HASH_ENV_VAR = "REPRO_TRACE_HASH"

#: Calendar wheel geometry.  4096 buckets per second (2**12, so the
#: time-to-bucket mapping is an exact binary scaling) and 256 slots
#: give ~244 µs buckets over a 62.5 ms horizon.
_BUCKETS_PER_S = 4096.0
_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1

#: Compaction trigger: at least this many suspected-stale timer
#: entries, and stale entries at least half of all queued future
#: entries (mirrors the dynamic-array doubling argument: compaction
#: work is amortised O(1) per cancellation).
_COMPACT_MIN_STALE = 64

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
        # -- queue components ---------------------------------------
        "_due",
        "_due_urgent",
        "_nf",
        "_cur",
        "_cur_pos",
        "_ring",
        "_ring_count",
        "_cursor_abs",
        "_far",
        # -- scheduler statistics (see sched_stats) -----------------
        "_depth",
        "_depth_hw",
        "_events_processed",
        "_timers_cancelled",
        "_stale_timers",
        "_timer_entries_purged",
        "_timer_compactions",
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
        #: The earliest future entry, buffered out of the wheel/heap so
        #: the pop path compares at most three heads.  ``None`` when no
        #: future entries exist.
        self._nf: _QueueEntry | None = None
        #: Sorted entries of the wheel bucket the cursor last drained,
        #: consumed from ``_cur_pos`` (same bounded-garbage index
        #: pattern as the queued disk model's FIFO).
        self._cur: list[_QueueEntry] = []
        self._cur_pos = 0
        self._ring: list[list[_QueueEntry]] = [
            [] for _ in range(_WHEEL_SLOTS)
        ]
        self._ring_count = 0
        #: Absolute bucket number (time * 4096) of the cursor; buckets
        #: at or before it have been drained into ``_cur``.
        self._cursor_abs = int(self._now * _BUCKETS_PER_S)
        #: Entries beyond the wheel horizon, plus conservative
        #: spill-over (a lagging cursor or a bucket collision may park
        #: a near entry here; ordering never depends on which
        #: component holds an entry).
        self._far: list[_QueueEntry] = []
        self._depth = 0
        self._depth_hw = 0
        self._events_processed = 0
        self._timers_cancelled = 0
        self._stale_timers = 0
        self._timer_entries_purged = 0
        self._timer_compactions = 0
        self._turns_in_place = 0
        #: True while run() owns the loop (step() never books turns).
        self._in_run = False
        #: run(until=<Event>)'s stop event, else None.
        self._stop_event: Event | None = None
        #: True while an event with more than one callback is being
        #: processed (set by Event._process).
        self._multi = False
        self._active_process: Process | None = None
        #: Callables invoked (with this env) after every processed
        #: event.  Empty in normal runs; the run loop only takes the
        #: instrumented path when a hook or the trace hash is active,
        #: so the fast loops stay branch-free.
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
        """
        if when < self._now:
            raise ValueError(f"when={when} is in the past (now={self._now})")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event.delay = when - self._now
        event._ok = True
        event._value = value
        if after is None or after.callbacks is None:
            self._queue_at(when, event)
        else:
            after.callbacks.append(lambda _ev: self._queue_at(when, event))
        return event

    def _queue_at(self, when: float, event: Event) -> None:
        self._seq += 1
        entry = (when, 1, self._seq, event)
        if when == self._now:
            self._due.append(entry)
        elif self._nf is None:
            self._nf = entry
        else:
            self._push_future(entry)
        d = self._depth + 1
        self._depth = d
        if d > self._depth_hw:
            self._depth_hw = d

    def timer(self, on_fire: _t.Callable[[Timer], None]) -> Timer:
        """A reschedulable timer calling ``on_fire(timer)`` when it fires.

        Unlike :meth:`timeout`, the returned :class:`Timer` starts
        idle — call :meth:`~repro.sim.events.Timer.arm` — and can be
        cancelled and re-armed indefinitely without allocating a new
        event per deadline change (see its docstring for the lazy
        cancellation contract).
        """
        return Timer(self, on_fire)

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
        if delay == 0.0:
            if priority == 1:
                self._due.append(entry)
            elif priority == 0:
                self._due_urgent.append(entry)
            else:
                # Nonstandard priority: the deques' sortedness only
                # holds for the two canonical levels.
                self._push_future(entry)
        else:
            self._push_future(entry)
        d = self._depth + 1
        self._depth = d
        if d > self._depth_hw:
            self._depth_hw = d

    def take_turn(self, kind: type) -> bool:
        """Book an in-place turn (DESIGN.md §14, "In-place turns").

        The running process is about to yield a zero-delay ``kind``
        event that is already satisfied and that it alone waits on.
        When that event would provably be the run loop's very next pop,
        this books the step exactly as the loop would — sequence
        number, processed-event count, depth high-water mark, step
        hooks, trace-hash line — and returns True: the caller then
        carries on as if resumed by the event, without queueing it.
        Returns False (booking nothing) unless

        * a process is running, resumed as the *only* callback of the
          current event (a later callback would run before the pop);
        * no same-instant entry is due, and the earliest future entry
          lies after ``now``;
        * :meth:`run` owns the loop (not :meth:`step`), and its stop
          event has not just been processed.
        """
        if (
            self._active_process is None
            or self._multi
            or not self._in_run
            or self._due
            or self._due_urgent
        ):
            return False
        nf = self._nf
        if nf is not None and nf[0] <= self._now:
            return False
        stop = self._stop_event
        if stop is not None and stop.callbacks is None:
            return False
        self._seq += 1
        if self._depth >= self._depth_hw:
            self._depth_hw = self._depth + 1
        self._turns_in_place += 1
        if self._step_hooks or self._trace is not None:
            # The step that resumed this process ends here.
            for hook in self._step_hooks:
                hook(self)
            if self._trace is not None:
                self._trace.update(
                    f"{self._seq}|{self._now!r}|{kind.__name__}\n".encode()
                )
        self._events_processed += 1
        return True

    def _push_future(self, entry: _QueueEntry) -> None:
        """Insert a future-time entry (``entry[0] >= now``).

        The one-entry ``_nf`` buffer always holds the minimum; a
        smaller arrival displaces the buffered entry back into the
        wheel/heap.  Which component stores an entry is purely a speed
        decision — pops re-compare heads — so a conservative fall-back
        to the far heap is always safe.

        Depth accounting is the *caller's* job (compaction re-inserts
        entries without re-counting them).
        """
        nf = self._nf
        if nf is None:
            self._nf = entry
            return
        if entry < nf:
            self._nf = entry
            entry = nf
        abs_b = int(entry[0] * _BUCKETS_PER_S)
        cursor = self._cursor_abs
        if abs_b <= cursor:
            # Lands in (or before) the already-drained bucket: insert
            # into the sorted remainder of the current bucket.
            insort(self._cur, entry, self._cur_pos)
        elif abs_b - cursor < _WHEEL_SLOTS:
            self._ring[abs_b & _WHEEL_MASK].append(entry)
            self._ring_count += 1
        else:
            heappush(self._far, entry)

    def _refill_nf(self) -> None:
        """Re-fill the future-min buffer after its entry was consumed."""
        cur = self._cur
        pos = self._cur_pos
        n = len(cur)
        while pos >= n and self._ring_count:
            self._advance_ring()
            cur = self._cur
            pos = self._cur_pos
            n = len(cur)
        far = self._far
        if pos < n:
            head = cur[pos]
            if far and far[0] < head:
                self._nf = heappop(far)
                return
            pos += 1
            if pos > 32 and pos * 2 > n:
                del cur[:pos]
                pos = 0
            self._cur_pos = pos
            self._nf = head
            return
        if far:
            self._nf = heappop(far)
            return
        self._nf = None

    def _advance_ring(self) -> None:
        """Move the cursor to the next non-empty wheel bucket and drain
        it into ``_cur`` (sorted).

        Entries from a *later lap* (same slot, absolute bucket ≥ one
        full wheel revolution ahead) spill to the far heap.  The scan
        may start at the current clock's bucket: every queued future
        entry is at or after the last consumed minimum, so earlier
        buckets cannot hold live entries.
        """
        ring = self._ring
        far = self._far
        b = self._cursor_abs + 1
        j = int(self._now * _BUCKETS_PER_S)
        if j > b:
            b = j
        while self._ring_count:
            bucket = ring[b & _WHEEL_MASK]
            if bucket:
                self._ring_count -= len(bucket)
                live: list[_QueueEntry] | None = None
                for entry in bucket:
                    if int(entry[0] * _BUCKETS_PER_S) == b:
                        if live is None:
                            live = []
                        live.append(entry)
                    else:
                        heappush(far, entry)
                del bucket[:]
                if live is not None:
                    live.sort()
                    self._cur = live
                    self._cur_pos = 0
                    self._cursor_abs = b
                    return
            b += 1
        self._cursor_abs = b
        self._cur = []
        self._cur_pos = 0

    def _peek_entry(self) -> _QueueEntry | None:
        """The next entry in (time, priority, seq) order, not removed."""
        best = self._nf
        due = self._due
        if due:
            head = due[0]
            if best is None or head < best:
                best = head
        urgent = self._due_urgent
        if urgent:
            head = urgent[0]
            if best is None or head < best:
                best = head
        return best

    def _pop_entry(self) -> _QueueEntry | None:
        """Remove and return the next entry, or ``None`` when empty."""
        due = self._due
        urgent = self._due_urgent
        nf = self._nf
        if urgent:
            head = urgent[0]
            src = urgent
            if due and due[0] < head:
                head = due[0]
                src = due
            if nf is None or head < nf:
                src.popleft()
                self._depth -= 1
                return head
        elif due:
            head = due[0]
            if nf is None or head < nf:
                due.popleft()
                self._depth -= 1
                return head
        elif nf is None:
            return None
        # Consume the buffered future minimum.  The common case — no
        # other future entries pending — is inlined; _refill_nf scans
        # the wheel otherwise.
        self._depth -= 1
        if (
            not self._ring_count
            and not self._far
            and self._cur_pos >= len(self._cur)
        ):
            self._nf = None
        else:
            self._refill_nf()
        return nf

    # -- timer garbage compaction ----------------------------------------
    def _note_stale_timer(self) -> None:
        """A queued timer entry no longer matches its armed deadline."""
        self._stale_timers += 1
        if self._stale_timers >= _COMPACT_MIN_STALE:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        depth_future = (
            (1 if self._nf is not None else 0)
            + len(self._cur)
            - self._cur_pos
            + self._ring_count
            + len(self._far)
        )
        if self._stale_timers * 2 >= depth_future:
            self._compact_futures()

    def _compact_futures(self) -> None:
        """Physically drop stale lazily-cancelled timer entries.

        Without this, a timer re-armed to a new deadline on every
        event (an analytic model under churn) leaves one garbage entry
        per re-arm in the queue until its old deadline passes —
        unbounded state for an unbounded re-arm rate.  Dropping an
        entry also removes its deadline from the timer's ``_queued``
        list, preserving :meth:`Timer.arm_at`'s invariant of at most
        one entry per distinct queued deadline.
        """
        survivors: list[_QueueEntry] = []
        dropped = 0
        entries: list[_QueueEntry] = []
        if self._nf is not None:
            entries.append(self._nf)
        entries.extend(self._cur[self._cur_pos :])
        for bucket in self._ring:
            entries.extend(bucket)
            del bucket[:]
        entries.extend(self._far)
        for entry in entries:
            event = entry[3]
            if type(event) is Timer and not (
                event._armed and event._deadline == entry[0]
            ):
                event._queued.remove(entry[0])
                dropped += 1
            else:
                survivors.append(entry)
        self._nf = None
        self._cur = []
        self._cur_pos = 0
        self._ring_count = 0
        self._far = []
        self._depth -= dropped
        self._timer_entries_purged += dropped
        self._timer_compactions += 1
        self._stale_timers = 0
        push = self._push_future
        for entry in survivors:
            push(entry)

    # -- statistics -------------------------------------------------------
    def sched_stats(self) -> dict[str, int]:
        """Point-in-time scheduler counters (all monotone except depth)."""
        return {
            "events_processed": self._events_processed,
            "queue_depth": self._depth,
            "queue_depth_hw": self._depth_hw,
            "timers_cancelled": self._timers_cancelled,
            "timer_entries_purged": self._timer_entries_purged,
            "timer_compactions": self._timer_compactions,
            "turns_in_place": self._turns_in_place,
        }

    # -- instrumentation -------------------------------------------------
    def add_step_hook(
        self, hook: _t.Callable[["Environment"], None]
    ) -> None:
        """Run ``hook(env)`` after every processed event.

        Installing any hook switches :meth:`run` from the flattened
        fast loops to the instrumented loop, so hooks cost nothing
        until the first one is registered.  Used by the runtime
        sanitizer (:mod:`repro.analysis.sanitize`).
        """
        self._step_hooks.append(hook)

    def remove_step_hook(
        self, hook: _t.Callable[["Environment"], None]
    ) -> None:
        """Unregister a hook added with :meth:`add_step_hook`."""
        self._step_hooks.remove(hook)

    def enable_trace_hash(self) -> None:
        """Start accumulating a deterministic digest of the schedule.

        Every processed event folds ``(seq, time, event identity)``
        into a BLAKE2b accumulator; two runs of the same seeded
        simulation must produce identical digests, whether they run in
        this process or in a parallel sweep worker.  Event identity is
        the process name for :class:`Process` events and the class name
        otherwise — no ``id()``/``hash()`` values, so the digest is
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
        """Instrumented single-event dispatch (trace + step hooks)."""
        self._now = when
        if self._trace is not None:
            ident = (
                event.name if isinstance(event, Process)
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
        when, _prio, seq, event = entry
        if self._step_hooks or self._trace is not None:
            self._dispatch(when, seq, event)
            return
        self._now = when
        event._process()

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
        """The loop of :meth:`run`, with its arguments resolved."""
        if self._step_hooks or self._trace is not None:
            return self._run_instrumented(stop_at, stop_event)

        # The loop variants below are the peek()/step() loop with the
        # per-event method and property calls flattened out — this is
        # the simulator's innermost loop, so every attribute load per
        # event counts.
        # The processed-event count is kept in a loop-local int and
        # flushed once on exit: a local increment is several times
        # cheaper than a per-event attribute read-modify-write.  The
        # two hottest variants additionally inline _pop_entry's
        # due-head and buffered-future cases; the urgent deque (process
        # starts/interrupts, comparatively rare) falls back to the
        # method, which re-derives the full three-way minimum.
        pop = self._pop_entry
        due = self._due
        urgent = self._due_urgent
        refill = self._refill_nf
        n = 0
        if stop_event is not None:
            try:
                # ``callbacks is None`` == Event.processed without the
                # property call; re-check before every event.
                while stop_event.callbacks is not None:
                    if urgent:
                        entry = pop()
                        if entry is None:  # pragma: no cover - defensive
                            raise RuntimeError(
                                "simulation ran out of events before the "
                                f"requested stop event fired: {stop_event!r}"
                            )
                    else:
                        entry = self._nf
                        if due:
                            head = due[0]
                            if entry is None or head < entry:
                                due.popleft()
                                entry = head
                            elif (
                                not self._ring_count
                                and not self._far
                                and self._cur_pos >= len(self._cur)
                            ):
                                self._nf = None
                            else:
                                refill()
                        elif entry is not None:
                            if (
                                not self._ring_count
                                and not self._far
                                and self._cur_pos >= len(self._cur)
                            ):
                                self._nf = None
                            else:
                                refill()
                        else:
                            raise RuntimeError(
                                "simulation ran out of events before the "
                                f"requested stop event fired: {stop_event!r}"
                            )
                        self._depth -= 1
                    n += 1
                    self._now = entry[0]
                    entry[3]._process()
            finally:
                self._events_processed += n
            if stop_event._ok:
                return stop_event._value
            raise _t.cast(BaseException, stop_event._value)
        if stop_at is None:
            try:
                while True:
                    if urgent:
                        entry = pop()
                        if entry is None:  # pragma: no cover - defensive
                            return None
                    else:
                        entry = self._nf
                        if due:
                            head = due[0]
                            if entry is None or head < entry:
                                due.popleft()
                                entry = head
                            elif (
                                not self._ring_count
                                and not self._far
                                and self._cur_pos >= len(self._cur)
                            ):
                                self._nf = None
                            else:
                                refill()
                        elif entry is not None:
                            if (
                                not self._ring_count
                                and not self._far
                                and self._cur_pos >= len(self._cur)
                            ):
                                self._nf = None
                            else:
                                refill()
                        else:
                            return None
                        self._depth -= 1
                    n += 1
                    self._now = entry[0]
                    entry[3]._process()
            finally:
                self._events_processed += n
        peek = self._peek_entry
        try:
            while True:
                entry = peek()
                if entry is None:
                    return None
                if entry[0] > stop_at:
                    self._now = stop_at
                    return None
                pop()
                n += 1
                self._now = entry[0]
                entry[3]._process()
        finally:
            self._events_processed += n

    def _run_instrumented(
        self, stop_at: float | None, stop_event: Event | None
    ) -> _t.Any:
        """The run loop with per-event instrumentation enabled.

        Mirrors the fast-loop variants exactly (same stop semantics,
        same event order) but routes every event through
        :meth:`_dispatch` so the trace hash and step hooks see it.
        """
        pop = self._pop_entry
        if stop_event is not None:
            while stop_event.callbacks is not None:
                entry = pop()
                if entry is None:
                    raise RuntimeError(
                        "simulation ran out of events before the "
                        f"requested stop event fired: {stop_event!r}"
                    )
                self._events_processed += 1
                self._dispatch(entry[0], entry[2], entry[3])
            if stop_event._ok:
                return stop_event._value
            raise _t.cast(BaseException, stop_event._value)
        peek = self._peek_entry
        while True:
            entry = peek()
            if entry is None:
                return None
            if stop_at is not None and entry[0] > stop_at:
                self._now = stop_at
                return None
            pop()
            self._events_processed += 1
            self._dispatch(entry[0], entry[2], entry[3])
