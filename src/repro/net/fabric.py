"""Network fabrics: how frames contend on the wire.

Two topologies are provided:

* :class:`SharedHubFabric` — one collision domain, all transfers
  serialise through a single 100 Mbps medium.  This is the paper's
  literal hardware description ("Linksys Etherfast 10/100Mbps 16 port
  hub").
* :class:`SwitchedFabric` — full-duplex 100 Mbps per port; a transfer
  occupies the sender's TX channel and the receiver's RX channel.
  Concurrent flows between disjoint node pairs do not contend.  This is
  the default because the measured PVFS throughputs in the paper (and
  in the PVFS paper it builds on) exceed what a single shared medium
  can carry, so the deployed device almost certainly switched.

Both fragment messages into frames so concurrent flows interleave
fairly rather than one message monopolising a channel.
"""

from __future__ import annotations

import typing as _t

from repro.sim import Environment, Event, Resource, Timeout
from repro.sim.events import PENDING, NamedEvent, call_soon
from repro.sim.resources import Request


class Fabric:
    """Frame-level wire model: what :class:`~repro.net.network.Network`
    reads from a fabric, and what the two topologies share.

    A transfer of ``size`` bytes is fragmented into ``frame_bytes``
    quanta so that concurrent flows share a channel in FIFO-fair
    slices instead of one flow monopolising it for a whole
    multi-megabyte message.  ``base_latency_s`` models the fixed
    per-message cost (interrupt, protocol stack, propagation) that
    dominates small transfers.
    """

    #: The ``model`` value of :meth:`stats_snapshot`.
    model: str

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = 100e6,
        frame_bytes: int = 65536,
        base_latency_s: float = 100e-6,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if frame_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {frame_bytes}")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.frame_bytes = int(frame_bytes)
        self.base_latency_s = float(base_latency_s)
        #: Cumulative bytes that crossed the wire (metrics hook).
        self.bytes_transferred = 0
        self.frames_transferred = 0
        #: Simulated seconds of frame wire time across all channels.
        self.wire_busy_s = 0.0

    def frame_time(self, nbytes: int) -> float:
        """Wire time for one frame of ``nbytes``."""
        return nbytes * 8.0 / self.bandwidth_bps

    def transfer_time_unloaded(self, size_bytes: int) -> float:
        """Transfer time on an idle fabric.

        Matches what :class:`Transfer` charges frame by frame: each
        acquisition of a channel carries at least one minimum-size
        frame, so even a zero-byte message pays one byte of framing on
        the wire.  (Partial final frames charge their actual bytes, so
        for ``size_bytes >= 1`` the per-frame sum telescopes to the
        whole message's wire time.)
        """
        return self.base_latency_s + self.frame_time(max(size_bytes, 1))

    @property
    def utilization_queue(self) -> int:  # pragma: no cover - interface
        """Frames currently waiting for a channel (contention probe)."""
        raise NotImplementedError

    def stats_snapshot(self) -> dict[str, _t.Any]:
        """Contention counters for metrics export (see DESIGN.md §12)."""
        return {
            "model": self.model,
            "bytes_transferred": self.bytes_transferred,
            "frames_transferred": self.frames_transferred,
            "utilization_queue": self.utilization_queue,
            "wire_busy_s": self.wire_busy_s,
        }

    def channels(self, src: str, dst: str) -> tuple[Resource, ...]:
        """The channels a frame from ``src`` to ``dst`` holds, in the
        order it claims them (and releases them in reverse)."""
        raise NotImplementedError  # pragma: no cover - interface

    def claim_idle(
        self, src: str, dst: str, size_bytes: int, holder: "Transfer"
    ) -> tuple[Resource, ...] | None:
        """Claim every channel of a one-frame transfer in place for
        ``holder``, or ``None``.

        A fabric that can tell up front that a transfer will never
        wait registers ``holder`` itself as the holder of each channel
        (as :meth:`~repro.sim.resources.Resource.claim` does: no grant
        objects, no grant events) and returns the channels; the
        :class:`Transfer` then holds them for the frame's wire time and
        releases them in claim order.  Never, by default.
        """
        return None

    def transfer(self, src: str, dst: str, size_bytes: int) -> "Transfer":
        """Carry ``size_bytes`` from ``src`` to ``dst`` frame by frame.

        Returns the :class:`Transfer`, an event firing once the last
        frame has left the wire and the base latency is paid.
        """
        return Transfer(self, src, dst, size_bytes).start()


class Transfer(NamedEvent):
    """One message's trip across a fabric, as a chain of callbacks.

    This is the fabric's only transfer path.  Each step is a callback
    on the event the step before scheduled, so a message costs no
    generator and no process, yet schedules the very events a process
    looping over the frames would (DESIGN.md §14, "The miss path: runs
    and callback stages"):

    * :meth:`start` queues the urgent start event a process queues;
    * per frame, a grant of each channel in :meth:`Fabric.channels`
      order, then the wire :class:`~repro.sim.events.Timeout`, then
      the releases in reverse order;
    * the base-latency timeout;
    * :meth:`_arrive`, which fires this event (a subclass first hands
      the message to its receiver).

    A transfer that :meth:`Fabric.claim_idle` admits skips the start
    event and the grants instead (:meth:`start_idle`).
    """

    __slots__ = (
        "fabric", "src", "dst", "_frames", "_left", "_chunk", "_wire_s",
        "_chans", "_held",
    )

    name = "transfer"

    def __init__(
        self, fabric: Fabric, src: str, dst: str, size_bytes: int
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        # Event.__init__, inlined: one stage per message.
        self.env = fabric.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.fabric = fabric
        self.src = src
        self.dst = dst
        # Even a zero-byte message occupies the wire for its framing.
        self._frames = max(1, -(-size_bytes // fabric.frame_bytes))
        self._left = size_bytes
        self._chunk = 0
        self._wire_s = 0.0
        self._chans: tuple[Resource, ...] = ()
        self._held: list[Request] = []

    # -- the framed path -------------------------------------------------
    def start(self) -> "Transfer":
        """Run the framed path from an urgent start event."""
        call_soon(self.env, self._begin)
        return self

    def _begin(self, _event: Event) -> None:
        self._chans = self.fabric.channels(self.src, self.dst)
        self._frame()

    def _frame(self) -> None:
        """Size the next frame and claim its first channel."""
        fabric = self.fabric
        left = self._left
        chunk = fabric.frame_bytes if left > fabric.frame_bytes else left
        self._left = left - chunk
        self._chunk = chunk
        self._wire_s = (chunk or 1) * 8.0 / fabric.bandwidth_bps
        self._held = []
        self._claim(self._chans[0])

    def _claim(self, res: Resource) -> None:
        """``res.request()`` without its two method calls: a grant
        event, queued now when ``res`` is free, else on its release."""
        req = Request.__new__(Request)
        req.env = self.env
        req.callbacks = [self._granted]
        req._value = PENDING
        req._ok = None
        req.resource = res
        self._held.append(req)
        # A waiter only queues behind a full resource, so a free one
        # has nobody to grant first.
        if len(res._holders) < res.capacity:
            res._holders.add(req)
            req.succeed(res)
        else:
            res._waiting.append(req)

    def _granted(self, _event: Event) -> None:
        k = len(self._held)
        if k < len(self._chans):
            self._claim(self._chans[k])
        else:
            Timeout(self.env, self._wire_s).callbacks.append(self._sent)

    def _sent(self, _event: Event) -> None:
        _release(reversed(self._held))
        self._account()
        self._frames -= 1
        if self._frames:
            self._frame()
        else:
            Timeout(self.env, self.fabric.base_latency_s).callbacks.append(
                self._arrive
            )

    def _account(self) -> None:
        fabric = self.fabric
        fabric.bytes_transferred += self._chunk
        fabric.frames_transferred += 1
        fabric.wire_busy_s += self._wire_s

    # -- the idle path ---------------------------------------------------
    def start_idle(self) -> bool:
        """Send the one frame at once on channels claimed in place.

        False, with nothing claimed, unless :meth:`Fabric.claim_idle`
        admits the transfer; run :meth:`start` then.
        """
        fabric = self.fabric
        left = self._left
        chans = fabric.claim_idle(self.src, self.dst, left, self)
        if chans is None:
            return False
        self._chans = chans
        self._chunk = left
        wire_s = self._wire_s = (left or 1) * 8.0 / fabric.bandwidth_bps
        Timeout(self.env, wire_s).callbacks.append(self._idle_sent)
        return True

    def _idle_sent(self, _event: Event) -> None:
        # Released in claim order, unlike the framed path: this stage
        # is the holder of each channel (Resource.release, inlined).
        for res in self._chans:
            holders = res._holders
            holders.remove(self)
            waiting = res._waiting
            while waiting and len(holders) < res.capacity:
                nxt = waiting.popleft()
                holders.add(nxt)
                nxt.succeed(res)
        fabric = self.fabric
        fabric.bytes_transferred += self._chunk
        fabric.frames_transferred += 1
        fabric.wire_busy_s += self._wire_s
        Timeout(self.env, fabric.base_latency_s).callbacks.append(
            self._arrive
        )

    # -- arrival ---------------------------------------------------------
    def _arrive(self, _event: Event) -> None:
        """The last bit is in: fire."""
        self.succeed()


def _release(held: _t.Iterable[Request]) -> None:
    """:meth:`Resource.release` of each held grant, in the given order,
    inlined: each may grant the channel to its next waiter."""
    for req in held:
        res = req.resource
        holders = res._holders
        holders.remove(req)
        waiting = res._waiting
        while waiting and len(holders) < res.capacity:
            nxt = waiting.popleft()
            holders.add(nxt)
            nxt.succeed(res)


class SharedHubFabric(Fabric):
    """All nodes share one medium (the paper's stated hub)."""

    model = "frames-hub"

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = 100e6,
        frame_bytes: int = 65536,
        base_latency_s: float = 100e-6,
    ) -> None:
        super().__init__(env, bandwidth_bps, frame_bytes, base_latency_s)
        self._medium = Resource(env, capacity=1)
        self._medium_only = (self._medium,)

    @property
    def utilization_queue(self) -> int:
        """Frames currently waiting for the medium."""
        return self._medium.queue_length

    def channels(self, src: str, dst: str) -> tuple[Resource, ...]:
        """The single shared medium, whoever the endpoints are."""
        return self._medium_only


class SwitchedFabric(Fabric):
    """Full-duplex per-port links through a non-blocking switch.

    A frame from ``src`` to ``dst`` holds ``src``'s TX channel and
    ``dst``'s RX channel for its wire time.  Holding TX while waiting
    for RX models head-of-line blocking at the sender's port (a
    property real output-queued NICs have).
    """

    model = "frames-switch"

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = 100e6,
        frame_bytes: int = 65536,
        base_latency_s: float = 100e-6,
    ) -> None:
        super().__init__(env, bandwidth_bps, frame_bytes, base_latency_s)
        self._tx: dict[str, Resource] = {}
        self._rx: dict[str, Resource] = {}

    def _channel(self, table: dict[str, Resource], node: str) -> Resource:
        if node not in table:
            table[node] = Resource(self.env, capacity=1)
        return table[node]

    @property
    def utilization_queue(self) -> int:
        """Frames waiting across all TX/RX ports."""
        return sum(
            ch.queue_length
            for table in (self._tx, self._rx)
            for ch in table.values()
        )

    def channels(self, src: str, dst: str) -> tuple[Resource, ...]:
        """The sender's TX port, then the receiver's RX port: a frame
        holds TX while it waits for RX (head-of-line blocking)."""
        return (
            self._tx.get(src) or self._channel(self._tx, src),
            self._rx.get(dst) or self._channel(self._rx, dst),
        )

    def claim_idle(
        self, src: str, dst: str, size_bytes: int, holder: Transfer
    ) -> tuple[Resource, ...] | None:
        """A one-frame transfer between idle ports claims both at once.

        When the message fits one frame and neither the sender's TX nor
        the receiver's RX channel has holders or waiters, the transfer
        outcome is fully determined up front: ``holder`` holds both
        channels for the frame's wire time, then pays the base latency.
        Timing is identical to the framed path for the covered case;
        only the start and grant events go.
        """
        if size_bytes > self.frame_bytes:
            return None
        tx = self._tx.get(src) or self._channel(self._tx, src)
        rx = self._rx.get(dst) or self._channel(self._rx, dst)
        if tx._holders or tx._waiting or rx._holders or rx._waiting:
            return None
        # Idle channels: what Resource.claim does, its checks made.
        tx._holders.add(holder)
        rx._holders.add(holder)
        return tx, rx
