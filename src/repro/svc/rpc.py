"""Request/response correlation over shared connection endpoints.

A private libpvfs connection can match responses FIFO, but the cache
module *shares* one connection per iod across every process on the
node, so responses must be correlated by message id.  :class:`RpcChannel`
runs a dispatcher loop that routes each inbound message to the
:class:`Call` whose request it answers.  A call may receive several
responses (the PVFS read protocol answers with an ACK message followed
by a DATA message).

This module is the single home of that logic — the mgr, iod and cache
daemons all reuse it through :class:`ChannelPool`, which adds lazy
connection establishment and strict teardown: closing a pool with
``strict=True`` surfaces any request still awaiting a response as a
:class:`PendingCallLeak` instead of letting the simulation hang on an
answer that will never come.
"""

from __future__ import annotations

import typing as _t

from repro.net.message import Message
from repro.net.sockets import Endpoint
from repro.sim import Event, ProcessKilled, Store
from repro.sim.events import PENDING, NamedEvent, call_soon
from repro.sim.resources import StoreGet

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node


class PendingCallLeak(RuntimeError):
    """A channel was torn down with requests still awaiting replies."""


class Call:
    """One outstanding request on an :class:`RpcChannel`."""

    __slots__ = ("channel", "msg_id", "kind", "responses_seen", "_responses")

    def __init__(self, channel: "RpcChannel", msg_id: int, kind: str) -> None:
        self.channel = channel
        self.msg_id = msg_id
        self.kind = kind
        #: Responses routed to this call so far (a timeout hook only
        #: fires while this is still zero).
        self.responses_seen = 0
        self._responses: Store = Store(channel.endpoint.env)

    def response(self):
        """Event yielding the next response message for this call."""
        return self._responses.get()

    def close(self) -> None:
        """Deregister; further responses for this id count as orphans."""
        self.channel._calls.pop(self.msg_id, None)

    @property
    def pending(self) -> bool:
        """True while the call is still registered on its channel."""
        return self.channel._calls.get(self.msg_id) is self

    def _arm_timeout(
        self,
        timeout_s: float,
        hook: _t.Callable[["Call"], None] | None,
    ) -> None:
        """Fire ``hook`` if no response arrives within ``timeout_s``.

        Implemented as a bare Timeout callback (no extra process), so
        the only cost is one event — and only for calls that ask for a
        deadline; ordinary calls add nothing to the schedule.
        """
        env = self.channel.endpoint.env

        def on_deadline(_event) -> None:
            if self.responses_seen == 0 and self.pending:
                self.channel.timed_out += 1
                if hook is not None:
                    hook(self)

        env.timeout(timeout_s).add_callback(on_deadline)


class RpcChannel:
    """Correlates responses on a shared connection endpoint."""

    def __init__(self, endpoint: Endpoint, label: str) -> None:
        self.endpoint = endpoint
        self.env = endpoint.env
        self.label = label
        self._calls: dict[int, Call] = {}
        #: Responses that matched no registered call (protocol bugs
        #: surface here instead of hanging the simulation).
        self.orphans = 0
        #: Calls whose deadline passed with no response seen.
        self.timed_out = 0
        self._dispatcher = _Dispatcher(self)

    def call(
        self,
        message: Message,
        timeout_s: float | None = None,
        on_timeout: _t.Callable[[Call], None] | None = None,
    ) -> Call:
        """Send ``message`` and register for its responses.

        The send is fire-and-forget (FIFO-ordered by the connection);
        the returned :class:`Call` collects responses.  With
        ``timeout_s`` set, ``on_timeout`` (if any) runs when the
        deadline passes before the first response.
        """
        msg_id = message.stamp(self.env)
        call = Call(self, msg_id, message.kind)
        self._calls[msg_id] = call
        self.endpoint.send(message)
        if timeout_s is not None:
            call._arm_timeout(timeout_s, on_timeout)
        return call

    @property
    def outstanding(self) -> int:
        """Calls still awaiting responses."""
        return len(self._calls)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has stopped the dispatcher."""
        return self._dispatcher.triggered

    def close(self, strict: bool = False) -> None:
        """Stop the dispatcher; with ``strict``, leaks raise.

        Always stops the dispatcher first so even a raising close never
        leaves a live receive loop behind.
        """
        self._dispatcher.stop()
        if strict and self._calls:
            pending = ", ".join(
                f"#{call.msg_id}({call.kind})"
                for call in self._calls.values()
            )
            self._calls.clear()
            raise PendingCallLeak(
                f"channel {self.label}: unanswered call(s): {pending}"
            )
        self._calls.clear()



class _Dispatcher(NamedEvent):
    """An :class:`RpcChannel`'s receive loop, as callbacks.

    Schedules what a process looping over ``recv()`` would: an urgent
    start event, then one ``StoreGet`` per inbound message and one
    ``StorePut`` per routed response, each step a callback on the event
    before; a put whose turn can be taken in place
    (:meth:`~repro.sim.resources.Store.put_in_place`) is not queued.
    It is itself the event such a process was, under the same name: it
    fails with :class:`~repro.sim.ProcessKilled` when :meth:`stop` ends
    the loop, and never fires otherwise.
    """

    __slots__ = ("channel", "name", "_waiting_on")

    def __init__(self, channel: RpcChannel) -> None:
        super().__init__(channel.env)
        self.channel = channel
        self.name = f"rpc-dispatch-{channel.label}"
        #: The get or put the loop is suspended on.
        self._waiting_on: Event | None = None
        call_soon(self.env, self._step)

    def _step(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # stopped before its start event ran
        channel = self.channel
        if type(event) is StoreGet:
            msg: Message = event._value
            call = channel._calls.get(msg.reply_to) if msg.reply_to else None
            if call is None:
                channel.orphans += 1
            else:
                call.responses_seen += 1
                responses = call._responses
                if not responses.put_in_place(msg):
                    wait = self._waiting_on = responses.put(msg)
                    wait.callbacks.append(self._step)  # type: ignore[union-attr]
                    return
                # The put's turn is taken: carry on as its callback.
        wait = self._waiting_on = channel.endpoint.recv()
        wait.callbacks.append(self._step)  # type: ignore[union-attr]

    def stop(self) -> None:
        """End the loop as :meth:`~repro.sim.Process.kill` ends a
        process: detach from the awaited event, then fail."""
        if self._value is not PENDING:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None and waited.callbacks is not None:
            step = self._step
            if step in waited.callbacks:
                waited.callbacks.remove(step)
        self.fail(ProcessKilled(f"{self.name} was killed"))


class ChannelPool:
    """Lazily-connected :class:`RpcChannel` per peer node.

    Every daemon that talks RPC (cache module -> iods, flusher -> iod
    flush ports, iod -> cache invalidation listeners) keeps one pool
    per remote port instead of hand-rolling
    the connect-once-and-cache pattern.
    """

    def __init__(self, node: "Node", port: int, label: str) -> None:
        self.node = node
        self.port = port
        self.label = label
        self._channels: dict[str, RpcChannel] = {}

    def channel(self, peer: str) -> _t.Generator:
        """Process body: the channel to ``peer``, connecting on first
        use."""
        chan = self._channels.get(peer)
        if chan is None:
            endpoint = yield self.node.env.process(
                self.node.sockets.connect(peer, self.port)
            )
            chan = RpcChannel(endpoint, label=f"{self.label}-{peer}")
            self._channels[peer] = chan
        return chan

    def connected(self, peer: str) -> RpcChannel | None:
        """The channel to ``peer`` if one is open, else ``None`` (then
        :meth:`channel` connects)."""
        return self._channels.get(peer)

    @property
    def outstanding(self) -> int:
        """Unanswered calls across every channel in the pool."""
        return sum(chan.outstanding for chan in self._channels.values())

    def close(self, strict: bool = False) -> None:
        """Close every channel; aggregates strict-mode leaks."""
        leaks: list[str] = []
        for chan in self._channels.values():
            try:
                chan.close(strict=strict)
            except PendingCallLeak as leak:
                leaks.append(str(leak))
        self._channels.clear()
        if leaks:
            raise PendingCallLeak("; ".join(leaks))
