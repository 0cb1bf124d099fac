"""Unit tests for the network substrate: fabrics, network, sockets."""

import pytest

from repro.net import (
    Message,
    Network,
    SharedHubFabric,
    SocketAPI,
    SwitchedFabric,
)
from repro.sim import Environment
from tests.conftest import make_cluster


# -- Message -----------------------------------------------------------------


def test_message_wire_bytes_includes_header():
    msg = Message(kind="read", size_bytes=4096)
    assert msg.wire_bytes == 4096 + Message.HEADER_BYTES


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(kind="x", size_bytes=-1)


def test_message_ids_unique():
    a = Message(kind="x", size_bytes=0)
    b = Message(kind="x", size_bytes=0)
    assert a.msg_id != b.msg_id


def test_message_reply_correlates():
    req = Message(kind="read", size_bytes=10, src="n1", dst="n2")
    resp = req.reply("data", 4096, payload=b"abc")
    assert resp.reply_to == req.msg_id
    assert resp.src == "n2" and resp.dst == "n1"
    assert resp.payload == b"abc"


# -- Shared hub ---------------------------------------------------------------


def test_hub_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SharedHubFabric(env, bandwidth_bps=0)
    with pytest.raises(ValueError):
        SharedHubFabric(env, frame_bytes=0)


def test_hub_single_transfer_time():
    env = Environment()
    hub = SharedHubFabric(
        env, bandwidth_bps=100e6, frame_bytes=65536, base_latency_s=100e-6
    )
    done = []

    def proc(env):
        yield from hub.transmit("a", "b", 65536)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    expected = 65536 * 8 / 100e6 + 100e-6
    assert done[0] == pytest.approx(expected)


def test_hub_concurrent_transfers_share_medium():
    """Two simultaneous 1 MB transfers each take ~2x the solo time."""
    env = Environment()
    hub = SharedHubFabric(
        env, bandwidth_bps=100e6, frame_bytes=65536, base_latency_s=0
    )
    finish = {}

    def proc(env, tag):
        yield from hub.transmit(tag, "sink-" + tag, 2**20)
        finish[tag] = env.now

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    solo = 2**20 * 8 / 100e6
    assert finish["a"] == pytest.approx(2 * solo, rel=0.05)
    assert finish["b"] == pytest.approx(2 * solo, rel=0.05)


def test_hub_small_transfer_not_starved_by_large():
    """Frame interleaving lets a 4 KB message finish long before a
    concurrent 1 MB message completes."""
    env = Environment()
    hub = SharedHubFabric(
        env, bandwidth_bps=100e6, frame_bytes=65536, base_latency_s=0
    )
    finish = {}

    def proc(env, tag, size):
        yield from hub.transmit(tag, "sink-" + tag, size)
        finish[tag] = env.now

    env.process(proc(env, "big", 2**20))
    env.process(proc(env, "small", 4096))
    env.run()
    assert finish["small"] < finish["big"] / 4


def test_hub_zero_byte_message_still_costs():
    env = Environment()
    hub = SharedHubFabric(env, base_latency_s=100e-6)
    done = []

    def proc(env):
        yield from hub.transmit("a", "b", 0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done[0] > 0


def test_hub_accounting():
    env = Environment()
    hub = SharedHubFabric(env, frame_bytes=1000)

    def proc(env):
        yield from hub.transmit("a", "b", 2500)

    env.process(proc(env))
    env.run()
    assert hub.bytes_transferred == 2500
    assert hub.frames_transferred == 3


def test_hub_negative_size_rejected():
    env = Environment()
    hub = SharedHubFabric(env)

    def proc(env):
        yield from hub.transmit("a", "b", -5)

    p = env.process(proc(env))
    env.run()
    assert not p.ok and isinstance(p.value, ValueError)


# -- Fabrics against closed forms ----------------------------------------------

MB = 2**20
BW = 100e6
#: Base latency of every fabric in this section (the default).
LAT = 100e-6


def _wire_s(nbytes: int) -> float:
    return max(nbytes, 1) * 8.0 / BW


def _run_flows(fabric, flows):
    """Run ``[(start_s, src, dst, size), ...]``; per-flow finish times."""
    env = fabric.env
    finish: dict[int, float] = {}

    def one(i, start, src, dst, size):
        if start:
            yield env.timeout(start)
        yield from fabric.transmit(src, dst, size)
        finish[i] = env.now

    for i, flow in enumerate(flows):
        env.process(one(i, *flow))
    env.run()
    assert len(finish) == len(flows)
    return [finish[i] for i in range(len(flows))]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_hub_fair_share(n):
    """N equal flows through one port finish at N·size/bandwidth, and
    each sustains ~C/N on the way — the closed form ROADMAP item 4(a)
    asks the network model to be held to."""
    size = 262144
    finish = _run_flows(
        SharedHubFabric(Environment()),
        [(0, f"s{i}", f"r{i}", size) for i in range(n)],
    )
    for t in finish:
        # Finishing by ~n*solo means the flow averaged >= C/n; no flow
        # may be starved below its fair share (beyond one frame skew).
        throughput = size * 8 / (t - LAT)
        assert throughput >= (BW / n) * 0.95, (
            f"flow got {throughput / 1e6:.1f} Mbps, fair share is "
            f"{BW / n / 1e6:.1f} Mbps"
        )
    assert max(finish) == pytest.approx(n * _wire_s(size) + LAT, rel=0.02)


@pytest.mark.parametrize("fabric_cls", [SharedHubFabric, SwitchedFabric])
@pytest.mark.parametrize("size", [0, 1, 65536, 4 * 65536, MB + 1])
def test_unloaded_formula_matches_actual_idle_transfer(fabric_cls, size):
    """``transfer_time_unloaded`` is exact for what transmit charges,
    per-frame framing included: a zero-byte message still pays one
    minimum-size frame on the wire."""
    fab = fabric_cls(Environment())
    (finish,) = _run_flows(fab, [(0, "a", "b", size)])
    assert finish == pytest.approx(
        fab.transfer_time_unloaded(size), rel=1e-9
    )


def test_zero_byte_message_still_occupies_wire():
    """Two zero-byte hub messages serialise their framing charges."""
    fab = SharedHubFabric(Environment())
    finish = _run_flows(fab, [(0, "a", "b", 0), (0, "c", "d", 0)])
    assert max(finish) == pytest.approx(2 * _wire_s(1) + LAT, rel=1e-6)


def test_hub_stats_snapshot_and_busy_time():
    fab = SharedHubFabric(Environment())
    _run_flows(fab, [(0, "a", "b", 65536)])
    snap = fab.stats_snapshot()
    assert snap["model"] == "frames-hub"
    assert snap["bytes_transferred"] == 65536
    assert snap["frames_transferred"] == 1
    assert snap["wire_busy_s"] == pytest.approx(_wire_s(65536))


def test_network_saturation_reaches_metrics_and_bus():
    from repro.svc.events import get_bus
    from repro.workload import MicroBenchmark, MicroBenchParams

    cluster = make_cluster()
    bus = get_bus(cluster.env)
    cluster.network.attach_bus(bus)
    params = MicroBenchParams(
        nodes=cluster.config.compute_node_names(),
        request_size=65536,
        iterations=4,
        mode="write",
        locality=0.0,
        partition_bytes=MB,
    )
    procs = MicroBenchmark(params).spawn(cluster)
    cluster.env.run(until=cluster.env.all_of(procs))
    snap = cluster.record_network_metrics()
    assert snap["messages_delivered"] > 0
    # record_network_metrics folded the snapshot into net.* counters.
    assert cluster.metrics.counters["net.messages_delivered"] > 0
    assert cluster.metrics.counters["net.bytes_transferred"] > 0
    # The bus row mirrors delivery totals and wire-busy time.
    stats = bus.stats["network"]
    assert stats.messages_handled == snap["messages_delivered"]
    assert stats.busy_s == pytest.approx(snap["wire_busy_s"])


# -- Network endpoints ---------------------------------------------------------


def test_network_register_and_send():
    env = Environment()
    net = Network(env)
    inbox = net.register("n2", 7000)
    got = []

    def sender(env):
        msg = Message(kind="ping", size_bytes=100, src="n1", dst="n2")
        yield net.send(msg, 7000)

    def receiver(env):
        msg = yield inbox.get()
        got.append((env.now, msg.kind))

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got and got[0][1] == "ping"
    assert net.messages_delivered == 1


def test_network_send_to_unknown_endpoint_raises():
    env = Environment()
    net = Network(env)
    msg = Message(kind="x", size_bytes=0, src="a", dst="ghost")
    with pytest.raises(KeyError):
        net.send(msg, 1234)


def test_network_loopback_skips_fabric():
    env = Environment()
    net = Network(env)
    net.register("n1", 7000)

    def proc(env):
        msg = Message(kind="local", size_bytes=2**20, src="n1", dst="n1")
        yield net.send(msg, 7000)

    env.process(proc(env))
    env.run()
    assert net.fabric.bytes_transferred == 0
    # loopback is fast: just the local protocol cost
    assert env.now == pytest.approx(net.loopback_latency_s)


def test_network_register_idempotent():
    env = Environment()
    net = Network(env)
    a = net.register("n1", 1)
    b = net.register("n1", 1)
    assert a is b
    assert net.has_endpoint("n1", 1)
    assert not net.has_endpoint("n1", 2)


# -- Sockets -------------------------------------------------------------------


def _connected_pair(env, net, client="c", server="s"):
    """Helper: run the connect handshake, return (client_ep, server_ep)."""
    api_s = SocketAPI(net, server)
    api_c = SocketAPI(net, client)
    listener = api_s.listen(9000)
    result = {}

    def srv(env):
        ep = yield listener.accept()
        result["server"] = ep

    def cli(env):
        ep = yield env.process(api_c.connect(server, 9000))
        result["client"] = ep

    env.process(srv(env))
    env.process(cli(env))
    env.run()
    return result["client"], result["server"]


def test_socket_connect_and_roundtrip():
    env = Environment()
    net = Network(env)
    client, server = _connected_pair(env, net)
    log = []

    def cli(env):
        yield client.send(Message(kind="req", size_bytes=128))
        resp = yield client.recv()
        log.append(("client-got", resp.kind))

    def srv(env):
        req = yield server.recv()
        log.append(("server-got", req.kind))
        yield server.send(req.reply("resp", 4096))

    env.process(cli(env))
    env.process(srv(env))
    env.run()
    assert log == [("server-got", "req"), ("client-got", "resp")]


def test_socket_connect_refused():
    env = Environment()
    net = Network(env)
    api = SocketAPI(net, "c")

    def cli(env):
        yield env.process(api.connect("ghost", 1))

    p = env.process(cli(env))
    env.run()
    assert not p.ok and isinstance(p.value, ConnectionRefusedError)


def test_socket_fifo_ordering_same_direction():
    """Messages of very different sizes must still arrive in send order."""
    env = Environment()
    net = Network(env)
    client, server = _connected_pair(env, net)
    got = []

    def cli(env):
        # Fire-and-forget: big one first, small one second.
        client.send(Message(kind="big", size_bytes=2**20))
        client.send(Message(kind="small", size_bytes=16))
        yield env.timeout(0)

    def srv(env):
        for _ in range(2):
            msg = yield server.recv()
            got.append(msg.kind)

    env.process(cli(env))
    env.process(srv(env))
    env.run()
    assert got == ["big", "small"]


def test_socket_same_node_connection():
    """An app can talk to a daemon on its own node (role-keyed inboxes)."""
    env = Environment()
    net = Network(env)
    client, server = _connected_pair(env, net, client="n1", server="n1")
    log = []

    def cli(env):
        yield client.send(Message(kind="q", size_bytes=10))
        resp = yield client.recv()
        log.append(resp.kind)

    def srv(env):
        msg = yield server.recv()
        yield server.send(msg.reply("a", 10))

    env.process(cli(env))
    env.process(srv(env))
    env.run()
    assert log == ["a"]
    assert net.fabric.bytes_transferred == 0  # loopback


def test_socket_send_on_closed_raises():
    env = Environment()
    net = Network(env)
    client, server = _connected_pair(env, net)
    client.conn.close()
    with pytest.raises(RuntimeError, match="closed"):
        client.send(Message(kind="x", size_bytes=1))


def test_socket_listen_twice_rejected():
    env = Environment()
    net = Network(env)
    api = SocketAPI(net, "s")
    api.listen(1)
    with pytest.raises(ValueError):
        api.listen(1)


def test_endpoint_pending_probe():
    env = Environment()
    net = Network(env)
    client, server = _connected_pair(env, net)

    def cli(env):
        yield client.send(Message(kind="a", size_bytes=1))
        yield client.send(Message(kind="b", size_bytes=1))

    env.process(cli(env))
    env.run()
    assert server.pending() == 2
    assert client.pending() == 0


def test_endpoint_node_names():
    env = Environment()
    net = Network(env)
    client, server = _connected_pair(env, net, client="apple", server="pear")
    assert client.node == "apple" and client.peer_node == "pear"
    assert server.node == "pear" and server.peer_node == "apple"
