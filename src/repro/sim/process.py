"""Generator-driven simulation processes."""

from __future__ import annotations

import typing as _t

from repro.sim.events import Event, Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment


class ProcessKilled(Exception):
    """Injected into a process by :meth:`Process.kill`."""


class Process(Event):
    """A running coroutine in the simulation.

    The wrapped generator yields :class:`Event` objects to suspend; the
    process resumes with the event's value (or the event's exception
    raised at the yield point).  A process is itself an event that
    fires with the generator's return value, so processes can wait on
    each other: ``result = yield env.process(child(env))``.
    """

    __slots__ = ("_generator", "name", "_waiting_on", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: _t.Generator,
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently suspended on.
        self._waiting_on: Event | None = None
        #: ``self._resume`` bound once: it is appended to the callbacks
        #: of every event the process waits on.  The cycle it makes
        #: through ``self`` is broken when the process terminates.
        self._resume_cb: _t.Callable[[Event], None] | None = self._resume
        # Kick off on a fresh urgent event so the first body statement
        # runs at the current simulation time, after the caller returns.
        start = Event(env)
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume_cb)
        env._seq += 1
        env._due_urgent.append((env._now, 0, env._seq, start))
        d = env._depth + 1
        env._depth = d
        if d > env._depth_hw:
            env._depth_hw = d

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: _t.Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Interrupting a finished process is an error; interrupting a
        process that is not currently waiting (i.e. scheduled to resume
        at this same instant) is also rejected to keep semantics simple.
        """
        if self.triggered:
            raise RuntimeError(f"{self.name} has already terminated")
        if self._waiting_on is None:
            raise RuntimeError(f"{self.name} is not waiting on any event")
        waited = self._waiting_on
        # Detach from the event we were waiting on: when it fires later
        # we must not resume a second time.
        resume = self._resume_cb
        if waited.callbacks is not None and resume in waited.callbacks:
            waited.callbacks.remove(resume)
        self._waiting_on = None
        # Deliver the interrupt via an urgent immediate event.
        exc_event = Event(self.env)
        exc_event._ok = False
        exc_event._value = Interrupt(cause)
        self.env.schedule(exc_event, priority=self.env.PRIORITY_URGENT)
        exc_event.add_callback(self._resume_cb)

    def kill(self) -> None:
        """Terminate the process by closing its generator.

        The process event fails with :class:`ProcessKilled` so waiters
        are not left hanging.
        """
        if self.triggered:
            return
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            if self._resume_cb in waited.callbacks:
                waited.callbacks.remove(self._resume_cb)
        self._waiting_on = None
        self._resume_cb = None
        self._generator.close()
        self.fail(ProcessKilled(f"{self.name} was killed"))

    # -- resume machinery --------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self.triggered:
            # Already finished — e.g. killed between its spawn and the
            # start event firing.  A late resume must not re-enter the
            # closed generator.
            return
        self._waiting_on = None
        env = self.env
        env._active_process = self
        # Hoisted bound methods: _resume runs once per generator
        # round-trip, the hottest path outside the run loop itself.
        generator = self._generator
        send = generator.send
        throw = generator.throw
        try:
            while True:
                try:
                    if event._ok:
                        target = send(event._value)
                    else:
                        exc = _t.cast(BaseException, event._value)
                        target = throw(exc)
                except StopIteration as stop:
                    self._resume_cb = None
                    self.succeed(stop.value)
                    return
                if not isinstance(target, Event):
                    # Tear down: a process yielded garbage; surface a
                    # clear error both in the process and to waiters.
                    err = TypeError(
                        f"{self.name} yielded {target!r}; processes may "
                        "only yield Event instances"
                    )
                    self._generator.close()
                    self.fail(err)
                    return
                if target.env is not env:
                    err = ValueError(
                        f"{self.name} yielded an event from a different "
                        "environment"
                    )
                    self._generator.close()
                    self.fail(err)
                    return
                callbacks = target.callbacks
                if callbacks is None:
                    # Already fired: loop and feed it straight back in,
                    # no rescheduling needed.
                    event = target
                    continue
                self._waiting_on = target
                callbacks.append(self._resume_cb)
                return
        except BaseException as exc:
            # The generator itself raised (bug in simulated code or a
            # deliberately un-caught Interrupt): fail the process event
            # so waiters see it; re-raise if nobody is waiting would be
            # nice but we cannot know yet, so we always fail loudly via
            # the event. Tests assert on this.
            if not self.triggered:
                self._resume_cb = None
                self.fail(exc)
            else:  # pragma: no cover - double fault
                raise
        finally:
            env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name} at {id(self):#x}>"
