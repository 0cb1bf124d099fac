"""Network: carrying messages between nodes through a fabric."""

from __future__ import annotations

import typing as _t

from repro.net.fabric import Fabric, SwitchedFabric, Transfer
from repro.net.message import Message
from repro.sim import Environment, Event, Store, Timeout
from repro.sim.events import PENDING

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.sockets import ListenQueue


class Network:
    """Delivers :class:`Message` objects between named nodes.

    Sockets (:mod:`repro.net.sockets`) are the only transport: every
    daemon listens on a ``(node, port)`` and every peer connects to
    it; a connection's endpoints hand each message to
    :meth:`deliver`.  Transmission occupies the fabric; local
    (same-node) delivery bypasses the wire entirely, which matters
    when a compute node doubles as an iod node.
    """

    def __init__(self, env: Environment, fabric: Fabric | None = None) -> None:
        self.env = env
        self.fabric: Fabric = (
            fabric if fabric is not None else SwitchedFabric(env)
        )
        #: The accept queue of every listening ``(node, port)``.
        self.listeners: dict[tuple[str, int], "ListenQueue"] = {}
        self.messages_delivered = 0
        #: Loopback messages never touch the fabric but still pay a
        #: small local protocol cost (localhost TCP is not free).
        self.loopback_latency_s = 20e-6

    # -- instrumentation -----------------------------------------------------
    def stats_snapshot(self) -> dict[str, _t.Any]:
        """Fabric contention counters plus delivery totals."""
        snap = dict(self.fabric.stats_snapshot())
        snap["messages_delivered"] = self.messages_delivered
        return snap

    # -- transport ---------------------------------------------------------
    def deliver(self, message: Message, inbox: Store) -> "Delivery":
        """Transmit ``message`` into ``inbox``; returns the done event
        (see :meth:`Delivery.launch`)."""
        return Delivery(self, message, inbox).launch()


class Delivery(Transfer):
    """A :class:`Transfer` that ends in the receiver's inbox.

    After the wire it puts the message into ``inbox`` and, once the
    put is admitted, counts the delivery and fires with the message.
    The put's turn is taken in place when it would be the run loop's
    next pop (:meth:`~repro.sim.resources.Store.put_in_place`).  Its
    schedule-trace identity is the one the code it replaced gave the
    done event: the transmission process's name on the framed path
    (``xmit-<kind>-<id>``, built only when a digest asks), a bare
    ``Event`` on the loopback and idle paths.
    """

    __slots__ = ("network", "message", "inbox", "_ident")

    def __init__(
        self,
        network: Network,
        message: Message,
        inbox: Store,
        ident: str | None = None,
    ) -> None:
        # Event.__init__ and Transfer.__init__, inlined: one stage per
        # message, and the message has checked its size already.
        fabric = network.fabric
        self.env = network.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.fabric = fabric
        self.src = message.src
        self.dst = message.dst
        size_bytes = message.size_bytes + message.HEADER_BYTES
        # Even a zero-byte message occupies the wire for its framing.
        self._frames = -(-size_bytes // fabric.frame_bytes)
        self._left = size_bytes
        self.network = network
        self.message = message
        self.inbox = inbox
        self._ident = ident

    @property  # type: ignore[override]
    def name(self) -> str:
        """This stage's identity in the schedule trace."""
        if self._ident is not None:
            return self._ident
        return f"xmit-{self.message.kind}-{self.message.msg_id}"

    def launch(self) -> "Delivery":
        """Send the message; returns this stage, the done event.

        Loopback pays :attr:`Network.loopback_latency_s` and never
        touches the fabric, a one-frame transfer between idle switch
        ports goes at once (:meth:`Transfer.start_idle`), and
        everything else takes the framed path a transmission process
        used to.
        """
        if self.src == self.dst:
            self._ident = "Event"
            Timeout(self.env, self.network.loopback_latency_s).callbacks.append(
                self._arrive
            )
            return self
        if self.start_idle():
            self._ident = "Event"
            return self
        return self.start()

    def _begin(self, event: Event) -> None:
        if self.src == self.dst:
            # Only a stage started by hand gets here (the shuffle of
            # two ranks on one node): loopback after the start event.
            Timeout(self.env, self.network.loopback_latency_s).callbacks.append(
                self._arrive
            )
        else:
            super()._begin(event)

    def _arrive(self, _event: Event) -> None:
        inbox = self.inbox
        if inbox.put_in_place(self.message):
            self._admitted(_event)
        else:
            inbox.put(self.message).callbacks.append(  # type: ignore[union-attr]
                self._admitted
            )

    def _admitted(self, _event: Event) -> None:
        self.network.messages_delivered += 1
        self.succeed(self.message)
