"""Network: wiring node endpoints together through a fabric."""

from __future__ import annotations

import typing as _t

from repro.net.fabric import Fabric, SwitchedFabric
from repro.net.message import Message
from repro.sim import Environment, Event, Process, Store, Timeout


class Network:
    """Delivers :class:`Message` objects between named nodes.

    Endpoints are ``(node, port)`` pairs, each backed by a FIFO
    :class:`~repro.sim.resources.Store`.  Transmission occupies the
    fabric; local (same-node) delivery bypasses the wire entirely,
    which matters when a compute node doubles as an iod node.
    """

    def __init__(self, env: Environment, fabric: Fabric | None = None) -> None:
        self.env = env
        self.fabric: Fabric = (
            fabric if fabric is not None else SwitchedFabric(env)
        )
        self._endpoints: dict[tuple[str, int], Store] = {}
        self.messages_delivered = 0
        #: Loopback messages never touch the fabric but still pay a
        #: small local protocol cost (localhost TCP is not free).
        self.loopback_latency_s = 20e-6
        #: ServiceStats row on the svc instrumentation bus, when a
        #: monitor attached one (see :meth:`attach_bus`).
        self._svc_stats: _t.Any = None

    # -- instrumentation -----------------------------------------------------
    def attach_bus(self, bus: _t.Any) -> None:
        """Register a ``network`` row on a svc instrumentation bus.

        The wire is not a :class:`~repro.svc.service.Service`, but its
        saturation belongs in the same per-daemon report: the row's
        ``handled`` is messages delivered, ``q-high`` the most frames
        the fabric ever had waiting for a channel, and ``busy(s)`` the
        fabric's cumulative wire-busy time.
        """
        stats = bus.register("network")
        stats.state = "running"
        stats.messages_handled = self.messages_delivered
        self._svc_stats = stats

    def _note_delivery(self) -> None:
        """Per-delivery bookkeeping (bus row, when attached)."""
        self.messages_delivered += 1
        stats = self._svc_stats
        if stats is not None:
            stats.messages_handled = self.messages_delivered
            stats.busy_s = self.fabric.wire_busy_s

    def stats_snapshot(self) -> dict[str, _t.Any]:
        """Fabric contention counters plus delivery totals."""
        snap = dict(self.fabric.stats_snapshot())
        snap["messages_delivered"] = self.messages_delivered
        return snap

    # -- endpoints ---------------------------------------------------------
    def register(self, node: str, port: int) -> Store:
        """Create the inbox for ``(node, port)``; idempotent."""
        key = (node, port)
        if key not in self._endpoints:
            self._endpoints[key] = Store(self.env)
        return self._endpoints[key]

    def endpoint(self, node: str, port: int) -> Store:
        """The inbox Store of ``(node, port)`` (KeyError if absent)."""
        try:
            return self._endpoints[(node, port)]
        except KeyError:
            raise KeyError(f"no endpoint registered at {node}:{port}") from None

    def has_endpoint(self, node: str, port: int) -> bool:
        """True if ``(node, port)`` is registered."""
        return (node, port) in self._endpoints

    # -- transport ---------------------------------------------------------
    def send(self, message: Message, dst_port: int) -> Event:
        """Asynchronously transmit ``message`` to ``(message.dst, port)``.

        Returns an event firing with the message once it has been
        enqueued at the receiver; yield it for a blocking send.
        """
        inbox = self.endpoint(message.dst, dst_port)  # fail fast
        message.stamp(self.env)
        return self.deliver(message, inbox)

    def deliver(self, message: Message, inbox: Store) -> Event:
        """Transmit ``message`` into ``inbox``; returns the done event.

        The common cases — loopback, and a single-frame transfer over
        idle switched-fabric ports — are driven entirely by scheduled
        callbacks instead of spawning a transmission :class:`Process`
        per message, which is the simulator's per-message hot path.
        Contended or multi-frame transfers fall back to the process.
        """
        env = self.env
        if message.src == message.dst:
            done = Event(env)
            Timeout(env, self.loopback_latency_s).callbacks.append(
                lambda _ev: self._finish_delivery(message, inbox, done)
            )
            return done
        stats = self._svc_stats
        if stats is not None:
            # Sample contention as the message joins the wire — by
            # delivery time its own share of the queue has drained.
            depth = self.fabric.utilization_queue
            if depth > stats.queue_high_water:
                stats.queue_high_water = depth
        done = Event(env)
        if self.fabric.fast_transmit(
            message.src,
            message.dst,
            message.wire_bytes,
            lambda: self._finish_delivery(message, inbox, done),
        ):
            return done
        return env.process(
            self._transmit(message, inbox),
            name=f"xmit-{message.kind}-{message.msg_id}",
        )

    def _finish_delivery(
        self, message: Message, inbox: Store, done: Event
    ) -> None:
        """Enqueue at the receiver, then fire ``done`` (waiting for the
        inbox to admit the message if it is at capacity)."""

        def _admitted(_ev: Event) -> None:
            self._note_delivery()
            done.succeed(message)

        inbox.put(message).add_callback(_admitted)

    def _transmit(self, message: Message, inbox: Store) -> _t.Generator:
        if message.src == message.dst:
            yield self.env.timeout(self.loopback_latency_s)
        else:
            yield from self.fabric.transmit(
                message.src, message.dst, message.wire_bytes
            )
        yield inbox.put(message)
        self._note_delivery()
        return message
