"""Structured instrumentation bus for the service runtime.

Every :class:`~repro.svc.service.Service` reports what it is doing in
two complementary forms:

* **Always-on stats** — a :class:`ServiceStats` record per daemon with
  plain integer/float counters (messages handled, per-kind dispatch
  counts, inbox queue high-water mark, busy time).  These are
  cheap enough to maintain on the simulator's hot paths and are what
  the per-daemon summary tables render.

* **Opt-in event records** — when a subscriber attached to the
  :class:`InstrumentationBus` takes its kind, a notable action
  additionally emits a typed :class:`ServiceEvent` (``flush_batch``,
  ``eviction``, ``invalidation``, ``metadata_op``, lifecycle
  transitions, ...).  A subscriber names the kinds it takes
  (or takes them all); a record no subscriber takes is never built,
  so the bus costs one set probe per emission site.

The bus is per-:class:`~repro.sim.Environment` (one simulated cluster
== one bus), obtained with :func:`get_bus` — there is deliberately no
process-global bus, so parallel sweep workers and co-hosted test
clusters can never observe each other's daemons.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

#: Record kinds emitted by the stock services, plus libpvfs's
#: ``client_io`` (one per data call, the record every consumer of
#: client I/O subscribes to).  Services may emit additional kinds;
#: this tuple documents the core schema.
CORE_EVENT_KINDS = (
    "start",
    "drain",
    "drained",
    "stop",
    "flush_batch",
    "eviction",
    "invalidation",
    "rpc_timeout",
    "metadata_op",
    "client_io",
)


class _EveryKind:
    """The :attr:`InstrumentationBus.heard` of a bus with a subscriber
    that takes every kind."""

    __slots__ = ()

    def __contains__(self, kind: object) -> bool:
        return True


@dataclasses.dataclass(frozen=True)
class ServiceEvent:
    """One structured instrumentation record."""

    time: float
    service: str
    node: str
    kind: str
    #: Free-form structured payload (counts, peer names, ...).
    detail: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return (
            f"[{self.time:.6f}] {self.service} {self.kind}"
            + (f" {extras}" if extras else "")
        )


class ServiceStats:
    """Always-on per-daemon counters maintained by the runtime."""

    __slots__ = (
        "service",
        "node",
        "state",
        "messages_handled",
        "dispatched",
        "events",
        "queue_high_water",
        "busy_s",
        "dropped",
    )

    def __init__(self, service: str, node: str = "") -> None:
        self.service = service
        self.node = node
        #: Mirror of the owning service's lifecycle state ("new",
        #: "running", "draining", "stopped").
        self.state = "new"
        #: Total messages/work items routed through dispatch().
        self.messages_handled = 0
        #: Per-message-kind dispatch counts.
        self.dispatched: dict[str, int] = {}
        #: Per-kind counts of emitted instrumentation events
        #: (flush_batch, eviction, invalidation, ...).
        self.events: dict[str, int] = {}
        #: Deepest a connection inbox ever got (for the writeback
        #: daemon: the most pages it held dirty).
        self.queue_high_water = 0
        #: Simulated seconds spent with a message in service (from
        #: dispatch to handler return, waits included).
        self.busy_s = 0.0
        #: Work items reported lost by a stop() without drain().
        self.dropped: dict[str, int] = {}

    @property
    def total_dropped(self) -> int:
        """Sum of all dropped-work counts."""
        return sum(self.dropped.values())


class InstrumentationBus:
    """Per-environment fan-out point for service instrumentation."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: ``(callable, kinds)`` per subscriber; ``kinds`` is ``None``
        #: for one that takes every kind.
        self.subscribers: list[
            tuple[_t.Callable[[ServiceEvent], None], frozenset[str] | None]
        ] = []
        #: The kinds some subscriber takes: emission sites build a
        #: record only ``if kind in bus.heard``.
        self.heard: _t.Container[str] = frozenset()
        #: service name -> its always-on stats record.
        self.stats: dict[str, ServiceStats] = {}

    # -- registration ----------------------------------------------------
    def register(self, service: str, node: str = "") -> ServiceStats:
        """Create (or uniquify and create) the stats slot for a daemon.

        Name collisions get a deterministic ``#N`` suffix so two
        anonymous services on one environment stay distinguishable.
        """
        name, n = service, 1
        while name in self.stats:
            n += 1
            name = f"{service}#{n}"
        record = ServiceStats(name, node)
        self.stats[name] = record
        return record

    # -- subscription ----------------------------------------------------
    def subscribe(
        self,
        fn: _t.Callable[[ServiceEvent], None],
        kinds: _t.Iterable[str] | None = None,
    ) -> _t.Callable[[], None]:
        """Attach ``fn`` for the record ``kinds`` it takes (every kind
        when ``None``); returns a detach callable."""
        self.subscribers.append((fn, None if kinds is None else frozenset(kinds)))
        self._hear()

        def detach() -> None:
            self.unsubscribe(fn)

        return detach

    def unsubscribe(self, fn: _t.Callable[[ServiceEvent], None]) -> None:
        """Detach ``fn`` (no-op if already detached)."""
        for i, (subscriber, _) in enumerate(self.subscribers):
            if subscriber == fn:
                del self.subscribers[i]
                self._hear()
                return

    def _hear(self) -> None:
        taken = [kinds for _, kinds in self.subscribers]
        if None in taken:
            self.heard = _EveryKind()
        else:
            self.heard = frozenset().union(*taken)

    # -- emission --------------------------------------------------------
    def emit(
        self,
        service: str,
        kind: str,
        node: str = "",
        **detail: _t.Any,
    ) -> None:
        """Deliver one record to every subscriber that takes ``kind``.

        Callers guard with ``if kind in bus.heard:`` so the record is
        never built on hot paths when nobody takes it.
        """
        record = ServiceEvent(
            time=self.env.now,
            service=service,
            node=node,
            kind=kind,
            detail=detail,
        )
        for fn, kinds in self.subscribers:
            if kinds is None or kind in kinds:
                fn(record)


def get_bus(env: "Environment") -> InstrumentationBus:
    """The environment's bus, created on first use."""
    bus = env.svc_bus
    if bus is None:
        bus = InstrumentationBus(env)
        env.svc_bus = bus
    return bus
