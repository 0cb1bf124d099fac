"""The service runtime: lifecycle, typed dispatch, and socket serving.

Every long-running daemon in the simulated cluster — the PVFS mgr, the
iods, the client-side flusher and harvester kernel threads, the cache
module's invalidation listener, and the per-disk writeback daemon —
subclasses :class:`Service`.  The base owns the shapes they all share:

* **Typed dispatch** — handler methods declare the message kind they
  serve with the :func:`handles` decorator; :meth:`Service.dispatch`
  routes any object carrying a ``.kind`` attribute (a network
  :class:`~repro.net.message.Message` or a plain work item such as a
  :class:`~repro.disk.writeback.WritebackItem`) to the right handler
  and maintains the per-daemon stats while doing so.

* **Socket serving** — :meth:`Service.serve` opens a port and runs the
  accept/per-connection receive loops, so no daemon hand-rolls its own
  ``while True: recv()`` loop.  Handlers stay per-connection-serial
  (TCP FIFO semantics) while separate connections are served
  concurrently, exactly as the pre-runtime daemons behaved.

* **Lifecycle** — ``start() / drain() / stop()``.  ``drain`` is a
  process body that lets daemons holding dirty work (flusher,
  writeback) push it out before teardown; ``stop`` kills the daemon's
  processes, closes its RPC channel pools, and returns a
  :class:`StopReport` counting any work dropped on the floor.

Determinism contract: every process the runtime spawns gets a name
derived from the service name plus a per-service counter — never
``id()`` — because killed processes enter the schedule trace hash.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.sim import ProcessKilled
from repro.svc.events import InstrumentationBus, get_bus
from repro.svc.rpc import ChannelPool

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.node import Node
    from repro.net.sockets import Endpoint, ListenQueue
    from repro.sim import Environment, Event, Process


class ServiceCrashed(RuntimeError):
    """A service's long-lived loop ended with an exception.

    Raised out of :meth:`~repro.sim.Environment.run` the moment the
    loop's process event is processed, chained to the loop's own
    exception.  Nobody waits on a daemon loop, so without this a dead
    harvester or listener fails silently and the run hangs on work
    that will never be done.
    """


class ServiceState(enum.Enum):
    """Lifecycle states of a :class:`Service`."""

    NEW = "new"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"


@dataclasses.dataclass
class StopReport:
    """What :meth:`Service.stop` left behind."""

    service: str
    node: str
    #: category -> count of work items lost because stop() ran without
    #: (or before finishing) drain().  Empty == clean shutdown.
    dropped: dict[str, int]
    #: Reports of child services stopped along with this one.
    children: list["StopReport"] = dataclasses.field(default_factory=list)

    @property
    def total_dropped(self) -> int:
        """Dropped-work count including children."""
        return sum(self.dropped.values()) + sum(
            child.total_dropped for child in self.children
        )

    def flat(self) -> _t.Iterator["StopReport"]:
        """This report and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.flat()


def handles(*kinds: str) -> _t.Callable:
    """Mark a method as the handler for messages of each of ``kinds``.

    The decorated method must be a generator (a process body) taking
    ``(body, endpoint)``; ``endpoint`` is ``None`` for work items.
    """

    def mark(fn: _t.Callable) -> _t.Callable:
        fn.__svc_handles__ = kinds  # type: ignore[attr-defined]
        return fn

    return mark


class Service:
    """Base class for every simulated daemon."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        node: "Node | None" = None,
        bus: InstrumentationBus | None = None,
    ) -> None:
        self.env = env
        self.name = name
        self.node = node
        self.bus = bus if bus is not None else get_bus(env)
        #: Always-on runtime counters (named ``svc_stats`` because
        #: some daemons expose a domain-level ``stats()`` of their own).
        self.svc_stats = self.bus.register(
            name, node.name if node is not None else ""
        )
        self.state = ServiceState.NEW
        #: CPU seconds charged on the owning node before every
        #: dispatch (the per-request protocol-processing cost; the mgr
        #: and iods set this from their cost model).
        self.request_cpu_s = 0.0
        #: Long-lived processes to kill at stop() (daemon loops,
        #: accept loops, connection loops — not short-lived helpers).
        self._procs: list["Process"] = []
        #: RPC channel pools to close at stop().
        self._pools: list[ChannelPool] = []
        #: Child services started/stopped with this one.
        self._children: list["Service"] = []
        self._conn_seq = 0
        # Collect @handles methods across the MRO (subclass wins).
        self._handlers: dict[str, _t.Callable] = {}
        for klass in type(self).__mro__:
            for attr, fn in vars(klass).items():
                for kind in getattr(fn, "__svc_handles__", ()):
                    if kind not in self._handlers:
                        self._handlers[kind] = getattr(self, attr)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Bring the daemon up (idempotent)."""
        if self.state is not ServiceState.NEW:
            return
        self.state = ServiceState.RUNNING
        self.svc_stats.state = ServiceState.RUNNING.value
        self._emit("start")
        self._on_start()

    def _on_start(self) -> None:
        """Subclass hook: open ports, spawn loops, start children."""

    def drain(self) -> _t.Generator:
        """Process body: finish outstanding dirty work, then return.

        The service keeps running afterwards (state returns to its
        pre-drain value); call :meth:`stop` for actual teardown.
        """
        if self.state is ServiceState.STOPPED:
            return
        prev = self.state
        self.state = ServiceState.DRAINING
        self.svc_stats.state = ServiceState.DRAINING.value
        self._emit("drain")
        yield from self._drain()
        if self.state is ServiceState.DRAINING:
            self.state = prev
            self.svc_stats.state = prev.value
        self._emit("drained")

    def _drain(self) -> _t.Generator:
        """Subclass hook (process body): default has nothing to flush."""
        return
        yield  # pragma: no cover - makes this a generator function

    def stop(self, strict: bool = False) -> StopReport:
        """Tear the daemon down; returns what was dropped.

        Children stop first, then this service's processes are killed
        and its channel pools closed.  With ``strict=True`` an RPC call
        still awaiting its response raises
        :class:`~repro.svc.rpc.PendingCallLeak` instead of being
        silently discarded.
        """
        if self.state is ServiceState.STOPPED:
            return StopReport(self.svc_stats.service, self.svc_stats.node, {})
        child_reports = [child.stop(strict=strict) for child in self._children]
        dropped = {k: v for k, v in self._dropped().items() if v}
        self.state = ServiceState.STOPPED
        self.svc_stats.state = ServiceState.STOPPED.value
        for key, count in dropped.items():
            self.svc_stats.dropped[key] = (
                self.svc_stats.dropped.get(key, 0) + count
            )
        self._on_stop()
        for proc in self._procs:
            if proc.is_alive:
                proc.kill()
        self._procs.clear()
        self._emit("stop", dropped=sum(dropped.values()))
        report = StopReport(
            self.svc_stats.service, self.svc_stats.node, dropped, child_reports
        )
        for pool in self._pools:
            pool.close(strict=strict)
        return report

    def _on_stop(self) -> None:
        """Subclass hook: release domain resources before procs die."""

    def _dropped(self) -> dict[str, int]:
        """Subclass hook: work that a stop() right now would lose."""
        return {}

    # -- plumbing ----------------------------------------------------------
    def adopt(self, child: "Service") -> "Service":
        """Register ``child`` to be stopped when this service stops."""
        self._children.append(child)
        return child

    def spawn(self, generator: _t.Generator, name: str) -> "Process":
        """Run a long-lived loop owned (and killed at stop) by this
        service.  Short-lived helpers should use ``env.process``.

        A loop that ends with any exception but the
        :class:`~repro.sim.ProcessKilled` of :meth:`stop` makes
        ``env.run()`` raise :class:`ServiceCrashed`.
        """
        proc = self.env.process(generator, name=name)
        proc.add_callback(self._loop_ended)
        self._procs.append(proc)
        return proc

    def _loop_ended(self, event: "Event") -> None:
        proc = _t.cast("Process", event)
        if proc.ok or isinstance(proc.value, ProcessKilled):
            return
        raise ServiceCrashed(
            f"{self.name}: loop {proc.name!r} crashed: {proc.value!r}"
        ) from proc.value

    def pool(self, port: int, label: str) -> ChannelPool:
        """A lazily-connecting RPC channel pool closed at stop()."""
        if self.node is None:
            raise ValueError(f"{self.name} has no node to connect from")
        channel_pool = ChannelPool(self.node, port, label)
        self._pools.append(channel_pool)
        return channel_pool

    def serve(self, port: int, label: str | None = None) -> None:
        """Listen on ``port`` and dispatch every inbound message."""
        if self.node is None:
            raise ValueError(f"{self.name} has no node to listen on")
        listener = self.node.sockets.listen(port)
        tag = label if label is not None else str(port)
        self.spawn(
            self._accept_loop(listener), name=f"{self.name}-accept-{tag}"
        )

    def _accept_loop(self, listener: "ListenQueue") -> _t.Generator:
        while True:
            endpoint = yield listener.accept()
            self._conn_seq += 1
            self.spawn(
                self._connection_loop(endpoint),
                name=f"{self.name}-conn{self._conn_seq}",
            )

    def _connection_loop(self, endpoint: "Endpoint") -> _t.Generator:
        stats = self.svc_stats
        env = self.env
        node = self.node
        while True:
            msg = yield endpoint.recv()
            # The one being handled plus those already queued behind it.
            depth = endpoint.pending() + 1
            if depth > stats.queue_high_water:
                stats.queue_high_water = depth
            # dispatch(), without a generator frame per message.
            handler = self._route(msg)
            if self.request_cpu_s and node is not None:
                yield node.compute(self.request_cpu_s)
            started_at = env._now
            yield from handler(msg, endpoint)
            stats.busy_s += env._now - started_at

    def dispatch(
        self, body: _t.Any, endpoint: "Endpoint | None" = None
    ) -> _t.Generator:
        """Process body: route ``body`` to its kind's handler."""
        handler = self._route(body)
        if self.request_cpu_s and self.node is not None:
            yield self.node.compute(self.request_cpu_s)
        env = self.env
        started_at = env._now
        yield from handler(body, endpoint)
        self.svc_stats.busy_s += env._now - started_at

    def _route(self, body: _t.Any) -> _t.Callable:
        """The handler of ``body``'s kind, with the dispatch counted."""
        kind = body.kind
        handler = self._handlers.get(kind)
        if handler is None:
            raise ValueError(
                f"{self.name} got unexpected message {kind!r}"
            )
        stats = self.svc_stats
        stats.messages_handled += 1
        stats.dispatched[kind] = stats.dispatched.get(kind, 0) + 1
        return handler

    def _emit(self, kind: str, **detail: _t.Any) -> None:
        """Record a notable event (always counted, emitted if heard)."""
        stats = self.svc_stats
        stats.events[kind] = stats.events.get(kind, 0) + 1
        if kind in self.bus.heard:
            self.bus.emit(stats.service, kind, node=stats.node, **detail)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"
