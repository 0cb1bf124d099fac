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

import math
import typing as _t

from repro.sim import Environment, Resource, Timeout


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

        Matches what :meth:`transmit` charges frame by frame: each
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

    def fast_transmit(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        deliver: _t.Callable[[], None],
    ) -> bool:
        """Try a callback-driven transfer that spawns no process.

        Returns False when the caller must run :meth:`transmit`
        instead, which is always the case on a fabric without such a
        path.
        """
        return False

    def transmit(
        self, src: str, dst: str, size_bytes: int
    ) -> _t.Generator:  # pragma: no cover - interface
        """Process body: carry ``size_bytes`` from ``src`` to ``dst``.

        Yields frame by frame so concurrent transmissions interleave.
        Completion of the generator means the last bit has left the
        wire; the caller then delivers the message.
        """
        raise NotImplementedError


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

    @property
    def utilization_queue(self) -> int:
        """Frames currently waiting for the medium."""
        return self._medium.queue_length

    def transmit(self, src: str, dst: str, size_bytes: int) -> _t.Generator:
        """Occupy the single shared medium, whoever the endpoints are."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        remaining = size_bytes
        # Even a zero-byte message occupies the wire for its framing.
        nframes = max(1, math.ceil(size_bytes / self.frame_bytes))
        for _ in range(nframes):
            chunk = min(self.frame_bytes, remaining) if remaining else 0
            remaining -= chunk
            wire_s = self.frame_time(max(chunk, 1))
            with self._medium.request() as req:
                yield req
                yield self.env.timeout(wire_s)
            self.bytes_transferred += chunk
            self.frames_transferred += 1
            self.wire_busy_s += wire_s
        yield self.env.timeout(self.base_latency_s)


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

    def fast_transmit(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        deliver: _t.Callable[[], None],
    ) -> bool:
        """Callback-driven single-frame transfer on idle ports.

        When the message fits one frame and neither the sender's TX nor
        the receiver's RX channel has holders or waiters, the transfer
        outcome is fully determined up front: hold both channels for
        the frame's wire time, then pay the base latency and call
        ``deliver``.  Returns False (caller must use :meth:`transmit`)
        whenever contention or fragmentation makes the generator path
        necessary.  Timing is identical to :meth:`transmit` for the
        covered case — this only removes per-message Process overhead.
        """
        if not (0 <= size_bytes <= self.frame_bytes):
            return False
        tx = self._channel(self._tx, src)
        rx = self._channel(self._rx, dst)
        if tx._holders or tx._waiting or rx._holders or rx._waiting:
            return False
        # Idle channels: claim both without grant events nobody yields.
        tx_req = tx.acquire_now()
        rx_req = rx.acquire_now()
        assert tx_req is not None and rx_req is not None
        env = self.env

        wire_s = self.frame_time(max(size_bytes, 1))

        def _frame_done(_ev: object) -> None:
            tx.release(tx_req)
            rx.release(rx_req)
            self.bytes_transferred += size_bytes
            self.frames_transferred += 1
            self.wire_busy_s += wire_s
            Timeout(env, self.base_latency_s).callbacks.append(
                lambda _e: deliver()
            )

        Timeout(env, wire_s).callbacks.append(_frame_done)
        return True

    def transmit(self, src: str, dst: str, size_bytes: int) -> _t.Generator:
        """Occupy the sender's TX and receiver's RX ports."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        tx = self._channel(self._tx, src)
        rx = self._channel(self._rx, dst)
        remaining = size_bytes
        nframes = max(1, math.ceil(size_bytes / self.frame_bytes))
        for _ in range(nframes):
            chunk = min(self.frame_bytes, remaining) if remaining else 0
            remaining -= chunk
            wire_s = self.frame_time(max(chunk, 1))
            with tx.request() as tx_req:
                yield tx_req
                with rx.request() as rx_req:
                    yield rx_req
                    yield self.env.timeout(wire_s)
            self.bytes_transferred += chunk
            self.frames_transferred += 1
            self.wire_busy_s += wire_s
        yield self.env.timeout(self.base_latency_s)
