"""Stream sockets over the simulated network.

``libpvfs`` talks to the metadata server and to each iod over TCP
sockets; the paper's kernel module interposes on exactly these socket
calls.  We reproduce that seam: an :class:`Endpoint` exposes
``send``/``recv``, and the cache module wraps the client-side endpoint
to intercept traffic (see :mod:`repro.cache.module`).

Guarantees mirrored from TCP: per-direction FIFO ordering (enforced
with a per-direction send lock, since hub frame interleaving could
otherwise reorder two in-flight messages), reliable delivery, and
connection-oriented addressing.  Endpoints are keyed by *role*
(client/server), not node name, because a compute node may talk to an
iod daemon on the very same node (loopback).
"""

from __future__ import annotations

import typing as _t

from repro.net.message import Message
from repro.net.network import Delivery, Network
from repro.sim import Environment, Event, Lock, Process, Store

CLIENT = "client"
SERVER = "server"


class Endpoint:
    """One side of a :class:`Connection`: its inbox, and the send lock
    of the direction it sends in."""

    __slots__ = ("conn", "role", "node", "peer_node", "_inbox", "_lock", "peer")

    def __init__(
        self, conn: "Connection", role: str, node: str, peer_node: str
    ) -> None:
        self.conn = conn
        self.role = role
        #: This endpoint's node name.
        self.node = node
        #: The other endpoint's node name.
        self.peer_node = peer_node
        self._inbox = Store(conn.env)
        self._lock = Lock(conn.env)
        #: The other endpoint (set by the :class:`Connection`).
        self.peer: Endpoint = self

    @property
    def env(self) -> Environment:
        """The simulation environment."""
        return self.conn.env

    def send(self, message: Message) -> Event:
        """Transmit ``message`` to the peer endpoint.

        Returns an event firing once the peer has the message queued.
        ``yield`` it to block, or fire-and-forget — FIFO order is
        preserved either way by the per-direction lock.
        """
        conn = self.conn
        if conn.closed:
            raise RuntimeError("send on closed connection")
        message.stamp(conn.env)
        message.src = self.node
        message.dst = self.peer_node
        stage = Delivery(conn.network, message, self.peer._inbox)
        lock = self._lock
        if lock.claim(stage):
            # Uncontended direction (the overwhelmingly common case):
            # the delivery stage itself holds the lock, with no grant
            # event nobody waits on and no ordering process, until its
            # done event is processed — FIFO is trivially preserved.
            # The release is that event's first callback, and it is
            # called with the stage, the holder.
            stage.callbacks.append(lock.release)  # type: ignore[union-attr]
            return stage.launch()

        def _ordered_send() -> _t.Generator:
            with lock.request() as req:
                yield req
                yield stage.launch()
            return message

        return conn.env.process(
            _ordered_send(), name=f"send-{message.kind}-{message.msg_id}"
        )

    def recv(self):
        """Event yielding the next message queued for this endpoint."""
        return self._inbox.get()

    def pending(self) -> int:
        """Messages already queued here (non-blocking probe)."""
        return len(self._inbox)

    def __repr__(self) -> str:
        return f"<Endpoint {self.role}@{self.node} to {self.peer_node}>"


class Connection:
    """A full-duplex ordered message stream between two nodes."""

    def __init__(
        self, network: Network, client_node: str, server_node: str
    ) -> None:
        self.network = network
        self.env: Environment = network.env
        self.client_node = client_node
        self.server_node = server_node
        self.client = Endpoint(self, CLIENT, client_node, server_node)
        self.server = Endpoint(self, SERVER, server_node, client_node)
        self.client.peer = self.server
        self.server.peer = self.client
        self.closed = False

    def close(self) -> None:
        """Mark the connection closed (sends then fail)."""
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"<Connection {self.client_node}<->{self.server_node}>"
        )


class ListenQueue:
    """A server's accept queue for one port."""

    def __init__(self, env: Environment, node: str, port: int) -> None:
        self.env = env
        self.node = node
        self.port = port
        self._accepts = Store(env)

    def accept(self):
        """Event yielding the server :class:`Endpoint` of the next
        inbound connection."""
        return self._accepts.get()

    def _push(self, endpoint: Endpoint):
        return self._accepts.put(endpoint)


class SocketAPI:
    """Per-node socket interface (the seam the cache module wraps)."""

    #: Cost of establishing a connection (three-way handshake + PVFS
    #: hello), charged to the connecting side.
    CONNECT_COST_S = 300e-6

    def __init__(self, network: Network, node: str) -> None:
        self.network = network
        self.env = network.env
        self.node = node

    def listen(self, port: int) -> ListenQueue:
        """Open an accept queue on ``port``."""
        listeners = self.network.listeners
        if (self.node, port) in listeners:
            raise ValueError(f"{self.node}:{port} is already listening")
        queue = listeners[(self.node, port)] = ListenQueue(
            self.env, self.node, port
        )
        return queue

    def connect(self, server_node: str, port: int) -> _t.Generator:
        """Process body: connect to ``server_node:port``.

        Yields until the handshake completes; returns the *client*
        :class:`Endpoint` of the new connection.
        """
        try:
            queue = self.network.listeners[(server_node, port)]
        except KeyError:
            raise ConnectionRefusedError(
                f"nothing listening at {server_node}:{port}"
            ) from None
        yield self.env.timeout(self.CONNECT_COST_S)
        conn = Connection(self.network, self.node, server_node)
        yield queue._push(conn.server)
        return conn.client
