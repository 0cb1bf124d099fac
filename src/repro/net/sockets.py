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

import itertools
import typing as _t

from repro.analysis.reset import register_reset
from repro.net.message import Message
from repro.net.network import Network
from repro.sim import Environment, Event, Lock, Process, Store

_conn_ids = itertools.count(1)


def _reset_conn_ids() -> None:
    """Test-reset hook: connection ids restart at 1 (see RPL004)."""
    global _conn_ids
    _conn_ids = itertools.count(1)


register_reset(_reset_conn_ids)

CLIENT = "client"
SERVER = "server"


class Endpoint:
    """One side of a :class:`Connection`."""

    __slots__ = ("conn", "role")

    def __init__(self, conn: "Connection", role: str) -> None:
        self.conn = conn
        self.role = role

    @property
    def node(self) -> str:
        """This endpoint's node name."""
        return (
            self.conn.client_node if self.role == CLIENT else self.conn.server_node
        )

    @property
    def peer_node(self) -> str:
        """The other endpoint's node name."""
        return (
            self.conn.server_node if self.role == CLIENT else self.conn.client_node
        )

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
        return self.conn._send(self.role, message)

    def recv(self):
        """Event yielding the next message queued for this endpoint."""
        return self.conn._inbox[self.role].get()

    def pending(self) -> int:
        """Messages already queued here (non-blocking probe)."""
        return len(self.conn._inbox[self.role])

    def __repr__(self) -> str:
        return f"<Endpoint {self.role}@{self.node} of conn #{self.conn.conn_id}>"


class Connection:
    """A full-duplex ordered message stream between two nodes."""

    def __init__(
        self, network: Network, client_node: str, server_node: str
    ) -> None:
        self.network = network
        self.env: Environment = network.env
        self.client_node = client_node
        self.server_node = server_node
        self.conn_id = next(_conn_ids)
        self._inbox: dict[str, Store] = {
            CLIENT: Store(self.env),
            SERVER: Store(self.env),
        }
        self._send_lock: dict[str, Lock] = {
            CLIENT: Lock(self.env),
            SERVER: Lock(self.env),
        }
        self.client = Endpoint(self, CLIENT)
        self.server = Endpoint(self, SERVER)
        self.closed = False

    def _send(self, from_role: str, message: Message) -> Event:
        if self.closed:
            raise RuntimeError("send on closed connection")
        to_role = SERVER if from_role == CLIENT else CLIENT
        message.src = self.client_node if from_role == CLIENT else self.server_node
        message.dst = self.client_node if to_role == CLIENT else self.server_node
        inbox = self._inbox[to_role]
        lock = self._send_lock[from_role]
        if not lock._holders and not lock._waiting:
            # Uncontended direction (the overwhelmingly common case):
            # take the lock synchronously and hand the message straight
            # to the network's callback-driven delivery — no ordering
            # process needed, FIFO is trivially preserved because the
            # lock is held until delivery completes.
            req = lock.request()
            done = self.network.deliver(message, inbox)
            done.add_callback(lambda _ev: lock.release(req))
            return done

        def _ordered_send() -> _t.Generator:
            with lock.request() as req:
                yield req
                yield self.network.deliver(message, inbox)
            return message

        return self.env.process(
            _ordered_send(), name=f"send-{message.kind}-{message.msg_id}"
        )

    def close(self) -> None:
        """Mark the connection closed (sends then fail)."""
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"<Connection #{self.conn_id} "
            f"{self.client_node}<->{self.server_node}>"
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
        self._listeners: dict[int, ListenQueue] = {}

    def listen(self, port: int) -> ListenQueue:
        """Open an accept queue on ``port``."""
        if port in self._listeners:
            raise ValueError(f"{self.node}:{port} is already listening")
        queue = ListenQueue(self.env, self.node, port)
        self._listeners[port] = queue
        registry = getattr(self.network, "_listeners", None)
        if registry is None:
            registry = {}
            self.network._listeners = registry  # type: ignore[attr-defined]
        registry[(self.node, port)] = queue
        return queue

    def connect(self, server_node: str, port: int) -> _t.Generator:
        """Process body: connect to ``server_node:port``.

        Yields until the handshake completes; returns the *client*
        :class:`Endpoint` of the new connection.
        """
        registry = getattr(self.network, "_listeners", {})
        try:
            queue: ListenQueue = registry[(server_node, port)]
        except KeyError:
            raise ConnectionRefusedError(
                f"nothing listening at {server_node}:{port}"
            ) from None
        yield self.env.timeout(self.CONNECT_COST_S)
        conn = Connection(self.network, self.node, server_node)
        yield queue._push(conn.server)
        return conn.client
