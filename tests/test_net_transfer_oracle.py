"""The transfer stage against the processes it replaced.

``repro.net`` carries every message as a :class:`~repro.net.fabric.Transfer`
callback stage.  This file keeps the code the stage replaced as the
reference model: the per-message transmission process, the two
generator loops over frames (the hub's medium; the switch's TX then
RX port) and the switch's closure-driven path for one frame between
idle ports.  A seeded storm of transfers must give the same delivery
time per message and the same schedule hash either way; the stage
takes an inbox put's turn in place where it can, which only
``turns_in_place`` tells apart.
"""

import math
import random

import pytest

from repro.net import Message, Network, SharedHubFabric, SwitchedFabric
from repro.net.network import Delivery
from repro.sim import Environment, Event, Store, Timeout

NODES = ("n0", "n1", "n2", "n3")


# -- the reference model --------------------------------------------------


def _hub_transmit(fabric, src, dst, size_bytes):
    """Process body: occupy the single shared medium, frame by frame."""
    if size_bytes < 0:
        raise ValueError(f"negative transfer size {size_bytes}")
    remaining = size_bytes
    nframes = max(1, math.ceil(size_bytes / fabric.frame_bytes))
    for _ in range(nframes):
        chunk = min(fabric.frame_bytes, remaining) if remaining else 0
        remaining -= chunk
        wire_s = fabric.frame_time(max(chunk, 1))
        with fabric._medium.request() as req:
            yield req
            yield fabric.env.timeout(wire_s)
        fabric.bytes_transferred += chunk
        fabric.frames_transferred += 1
        fabric.wire_busy_s += wire_s
    yield fabric.env.timeout(fabric.base_latency_s)


def _switch_transmit(fabric, src, dst, size_bytes):
    """Process body: hold the sender's TX port, then the receiver's RX
    port, frame by frame."""
    if size_bytes < 0:
        raise ValueError(f"negative transfer size {size_bytes}")
    tx = fabric._channel(fabric._tx, src)
    rx = fabric._channel(fabric._rx, dst)
    remaining = size_bytes
    nframes = max(1, math.ceil(size_bytes / fabric.frame_bytes))
    for _ in range(nframes):
        chunk = min(fabric.frame_bytes, remaining) if remaining else 0
        remaining -= chunk
        wire_s = fabric.frame_time(max(chunk, 1))
        with tx.request() as tx_req:
            yield tx_req
            with rx.request() as rx_req:
                yield rx_req
                yield fabric.env.timeout(wire_s)
        fabric.bytes_transferred += chunk
        fabric.frames_transferred += 1
        fabric.wire_busy_s += wire_s
    yield fabric.env.timeout(fabric.base_latency_s)


def _switch_fast_transmit(fabric, src, dst, size_bytes, deliver):
    """One frame between idle switch ports, driven by closures; False
    when the generator path must run instead."""
    if not (0 <= size_bytes <= fabric.frame_bytes):
        return False
    tx = fabric._channel(fabric._tx, src)
    rx = fabric._channel(fabric._rx, dst)
    if tx._holders or tx._waiting or rx._holders or rx._waiting:
        return False
    # What acquire_now did: grants born granted, nothing scheduled.
    tx_req, rx_req = object(), object()
    assert tx.claim(tx_req) and rx.claim(rx_req)
    env = fabric.env
    wire_s = fabric.frame_time(max(size_bytes, 1))

    def _frame_done(_ev):
        tx.release(tx_req)
        rx.release(rx_req)
        fabric.bytes_transferred += size_bytes
        fabric.frames_transferred += 1
        fabric.wire_busy_s += wire_s
        Timeout(env, fabric.base_latency_s).callbacks.append(
            lambda _e: deliver()
        )

    Timeout(env, wire_s).callbacks.append(_frame_done)
    return True


class ReferenceNetwork(Network):
    """:class:`Network` delivering through the replaced processes."""

    def _transmit(self, message, inbox):
        if message.src == message.dst:
            yield self.env.timeout(self.loopback_latency_s)
        elif isinstance(self.fabric, SharedHubFabric):
            yield from _hub_transmit(
                self.fabric, message.src, message.dst, message.wire_bytes
            )
        else:
            yield from _switch_transmit(
                self.fabric, message.src, message.dst, message.wire_bytes
            )
        yield inbox.put(message)
        self.messages_delivered += 1
        return message

    def _finish_delivery(self, message, inbox, done):
        def _admitted(_ev):
            self.messages_delivered += 1
            done.succeed(message)

        inbox.put(message).add_callback(_admitted)

    def deliver(self, message, inbox):
        env = self.env
        if message.src == message.dst:
            done = Event(env)
            Timeout(env, self.loopback_latency_s).callbacks.append(
                lambda _ev: self._finish_delivery(message, inbox, done)
            )
            return done
        done = Event(env)
        if isinstance(self.fabric, SwitchedFabric) and _switch_fast_transmit(
            self.fabric,
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

    def start_by_hand(self, message, inbox):
        """What the collective's shuffle did: a process, whatever the
        ports, under the generator's own name."""
        return self.env.process(self._transmit(message, inbox))


def _start_by_hand(network, message, inbox):
    if isinstance(network, ReferenceNetwork):
        return network.start_by_hand(message, inbox)
    return Delivery(network, message, inbox, ident="_transmit").start()


# -- the storm ------------------------------------------------------------------


def _plan(seed, n=200, frame_bytes=1500):
    """``(start_s, src, dst, size_bytes, by_hand)`` per transfer."""
    rng = random.Random(seed)
    plan = []
    for _ in range(n):
        # wire bytes up to three full frames (the header counts too)
        size = rng.randrange(0, 3 * frame_bytes - Message.HEADER_BYTES + 1)
        plan.append(
            (
                # a 1 ms grid: some arrivals share an instant
                round(rng.uniform(0.0, 0.08), 3),
                rng.choice(NODES),
                rng.choice(NODES),
                size,
                rng.random() < 0.2,
            )
        )
    return plan


def _loopbacks(seed):
    return sum(src == dst for _, src, dst, _, _ in _plan(seed))


def _storm(network_cls, fabric_cls, seed, n=200, frame_bytes=1500):
    """``n`` transfers of 0-3 frames between random nodes at staggered
    start times, some started by hand; per-message delivery and receipt
    times, fabric counters and the schedule hash."""
    env = Environment()
    env.enable_trace_hash()
    fabric = fabric_cls(env, frame_bytes=frame_bytes)
    network = network_cls(env, fabric=fabric)
    inboxes = {node: Store(env) for node in NODES}
    plan = _plan(seed, n, frame_bytes)
    delivered = {}
    received = {}

    def sender(env, i, start, src, dst, size, by_hand):
        yield env.timeout(start)
        message = Message(kind="storm", size_bytes=size, src=src, dst=dst)
        message.stamp(env)
        if by_hand:
            done = _start_by_hand(network, message, inboxes[dst])
        else:
            done = network.deliver(message, inboxes[dst])
        got = yield done
        assert got is message
        delivered[i] = env.now

    def receiver(env, node):
        while True:
            message = yield inboxes[node].get()
            received[message.msg_id] = (node, env.now)

    for node in NODES:
        env.process(receiver(env, node))
    for i, step in enumerate(plan):
        env.process(sender(env, i, *step))
    env.run()
    assert len(delivered) == n
    return {
        "delivered": [delivered[i] for i in range(n)],
        "received": received,
        "counters": (
            fabric.bytes_transferred,
            fabric.frames_transferred,
            fabric.wire_busy_s,
            network.messages_delivered,
        ),
        "hash": env.trace_hash(),
        "events": env.sched_stats(),
    }


@pytest.mark.parametrize("fabric_cls", [SharedHubFabric, SwitchedFabric])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stage_matches_the_replaced_processes(fabric_cls, seed, monkeypatch):
    """Same delivery and receipt times, counters, events, depth
    high-water mark and digest; the stage books one more in-place turn
    per inbox put it admitted in place, and nothing else differs."""
    taken = []
    put_in_place = Store.put_in_place

    def counting(self, item):
        admitted = put_in_place(self, item)
        taken.append(admitted)
        return admitted

    monkeypatch.setattr(Store, "put_in_place", counting)
    stage = _storm(Network, fabric_cls, seed)
    in_place = sum(taken)
    reference = _storm(ReferenceNetwork, fabric_cls, seed)
    assert len(taken) == len(_plan(seed))  # the reference never asks
    assert stage["delivered"] == reference["delivered"]
    assert stage["received"] == reference["received"]
    assert stage["counters"] == reference["counters"]
    stage_turns = stage["events"].pop("turns_in_place")
    reference_turns = reference["events"].pop("turns_in_place")
    assert stage["events"] == reference["events"]
    assert stage_turns - reference_turns == in_place
    assert 0 < in_place < len(taken)  # taken in place, and refused
    assert stage["hash"] == reference["hash"]


def test_storm_covers_every_path():
    """The storm is not trivially calm: it loops back, sends frames in
    trains, and queues for the wire."""
    env = Environment()
    for fabric_cls in (SharedHubFabric, SwitchedFabric):
        run = _storm(Network, fabric_cls, 1)
        _bytes, frames, _busy, messages = run["counters"]
        assert frames > messages - _loopbacks(1)  # multi-frame trains
        assert _loopbacks(1) > 0
        fabric = fabric_cls(env, frame_bytes=1500)
        header = Message.HEADER_BYTES
        waited = [
            finish - start
            > fabric.transfer_time_unloaded(size + header) + 1e-9
            for (start, src, dst, size, _), finish in zip(
                _plan(1), run["delivered"]
            )
            if src != dst
        ]
        assert any(waited) and not all(waited)
