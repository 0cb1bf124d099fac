"""RPC correlation: shared connections, timeouts, and leak detection."""

import pytest

from repro.net import Message, Network, SocketAPI
from repro.sim import Environment
from repro.svc import ChannelPool, PendingCallLeak, RpcChannel, Service

from tests.conftest import make_cluster, run_app


def _pair(env, net):
    api_s = SocketAPI(net, "s")
    api_c = SocketAPI(net, "c")
    listener = api_s.listen(1)
    out = {}

    def srv(env):
        out["server"] = yield listener.accept()

    def cli(env):
        out["client"] = yield env.process(api_c.connect("s", 1))

    env.process(srv(env))
    env.process(cli(env))
    env.run()
    return out["client"], out["server"]


class _StubNode:
    def __init__(self, env, net, name):
        self.env = env
        self.name = name
        self.sockets = SocketAPI(net, name)


# -- correlation on a real shared iod connection ------------------------------


def test_shared_iod_connection_resolves_interleaved_readers():
    """Two apps on one node share the cache module's iod channel; each
    read's ack+data responses must land at the right caller."""
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    data_a = b"A" * 16384
    data_b = b"B" * 16384
    writer = cluster.client("node1")

    def seed(env):
        for path, data in (("/a", data_a), ("/b", data_b)):
            handle = yield from writer.open(path)
            yield from writer.write(handle, 0, len(data), data)

    run_app(cluster, seed(cluster.env))
    # Settle all dirty state (the seed's flushes fan out to both iods'
    # writeback daemons) so the strict teardown below has nothing to drop.
    run_app(cluster, cluster.drain_node("node1"))
    for name in cluster.iod_nodes:
        run_app(cluster, cluster.drain_node(name))

    got = {}
    reader = cluster.client("node0")

    def read(path, expect):
        handle = yield from reader.open(path)
        data = yield from reader.read(handle, 0, len(expect), want_data=True)
        got[path] = data

    procs = [
        cluster.env.process(read("/a", data_a)),
        cluster.env.process(read("/b", data_b)),
    ]
    cluster.env.run(until=cluster.env.all_of(procs))
    assert got == {"/a": data_a, "/b": data_b}

    module = cluster.cache_modules["node0"]
    assert module._iod_pool.outstanding == 0  # every call closed

    # Clean workload -> strict teardown finds no leaked calls anywhere.
    for report in cluster.stop_services(strict=True):
        for entry in report.flat():
            assert entry.total_dropped == 0, entry


def test_out_of_order_responses_with_timeouts_armed():
    """Reverse-order replies land correctly even on deadline-armed calls."""
    env = Environment()
    net = Network(env)
    client, server = _pair(env, net)
    channel = RpcChannel(client, label="test")
    got = {}

    def cli(env):
        c1 = channel.call(Message(kind="q1", size_bytes=10), timeout_s=5.0)
        c2 = channel.call(Message(kind="q2", size_bytes=10), timeout_s=5.0)
        r2 = yield c2.response()
        r1 = yield c1.response()
        got["r1"], got["r2"] = r1.kind, r2.kind
        c1.close()
        c2.close()

    def srv(env):
        m1 = yield server.recv()
        m2 = yield server.recv()
        yield server.send(m2.reply("a2", 10))
        yield server.send(m1.reply("a1", 10))

    env.process(cli(env))
    env.process(srv(env))
    env.run()
    assert got == {"r1": "a1", "r2": "a2"}
    assert channel.outstanding == 0
    assert channel.timed_out == 0  # both answered well before deadline


# -- timeouts -----------------------------------------------------------------


def test_timeout_hook_fires_for_silent_server():
    env = Environment()
    net = Network(env)
    client, _server = _pair(env, net)
    channel = RpcChannel(client, label="test")
    fired = []

    call = channel.call(
        Message(kind="lost", size_bytes=10),
        timeout_s=0.5,
        on_timeout=fired.append,
    )
    env.run()
    assert fired == [call]
    assert channel.timed_out == 1
    assert call.pending  # the hook observes, it does not cancel
    # Deadline counts from call() (shortly after the handshake).
    assert env.now == pytest.approx(0.5, abs=1e-2)


def test_timeout_hook_suppressed_after_first_response():
    env = Environment()
    net = Network(env)
    client, server = _pair(env, net)
    channel = RpcChannel(client, label="test")
    fired = []

    def srv(env):
        req = yield server.recv()
        yield server.send(req.reply("ack", 8))

    def cli(env):
        call = channel.call(
            Message(kind="fast", size_bytes=10),
            timeout_s=5.0,
            on_timeout=fired.append,
        )
        yield call.response()
        call.close()

    env.process(srv(env))
    env.process(cli(env))
    env.run()
    assert fired == []
    assert channel.timed_out == 0


# -- leak detection at teardown -----------------------------------------------


def test_unanswered_call_surfaces_pending_call_leak():
    env = Environment()
    net = Network(env)
    client, _server = _pair(env, net)
    channel = RpcChannel(client, label="iod-link")
    channel.call(Message(kind="orphaned-read", size_bytes=10))
    env.run()  # server never answers; sim goes quiet instead of hanging
    assert channel.outstanding == 1
    with pytest.raises(PendingCallLeak, match=r"orphaned-read"):
        channel.close(strict=True)
    # The dispatcher really died even though close() raised.
    assert channel.closed
    assert channel.outstanding == 0


def test_lenient_close_discards_pending_calls():
    env = Environment()
    net = Network(env)
    client, _server = _pair(env, net)
    channel = RpcChannel(client, label="test")
    channel.call(Message(kind="dropped", size_bytes=10))
    env.run()
    channel.close()  # strict=False: no raise
    assert channel.outstanding == 0


def test_pool_strict_close_aggregates_leaks():
    env = Environment()
    net = Network(env)
    server_api = SocketAPI(net, "peer")
    server_api.listen(9)  # accept but never answer
    node = _StubNode(env, net, "origin")
    pool = ChannelPool(node, 9, "test-pool")

    def cli(env):
        channel = yield from pool.channel("peer")
        channel.call(Message(kind="unanswered", size_bytes=10))

    env.run(until=env.process(cli(env)))
    assert pool.outstanding == 1
    with pytest.raises(PendingCallLeak, match=r"unanswered"):
        pool.close(strict=True)


def test_service_strict_stop_surfaces_leak():
    env = Environment()
    net = Network(env)
    server_api = SocketAPI(net, "peer")
    server_api.listen(9)
    service = Service(env, "leaky", node=_StubNode(env, net, "origin"))
    service.start()
    pool = service.pool(9, "leaky-pool")

    def cli(env):
        channel = yield from pool.channel("peer")
        channel.call(Message(kind="never-answered", size_bytes=10))

    env.run(until=env.process(cli(env)))
    with pytest.raises(PendingCallLeak, match=r"never-answered"):
        service.stop(strict=True)
    # The raise happened after teardown: the service is fully stopped.
    assert service.state.value == "stopped"
