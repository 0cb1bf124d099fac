"""Tests for the service runtime: lifecycle, dispatch, instrumentation."""

import pytest

from repro.metrics import daemon_table
from repro.net import Message, Network, SocketAPI
from repro.pvfs import protocol
from repro.sim import Environment
from repro.svc import Service, ServiceCrashed, ServiceState, get_bus, handles
from repro.svc.events import CORE_EVENT_KINDS

from tests.conftest import make_cluster, run_app


class EchoNode:
    """Minimal stand-in for a cluster Node (sockets + free compute)."""

    def __init__(self, env, network, name):
        self.env = env
        self.name = name
        self.sockets = SocketAPI(network, name)

    def compute(self, seconds):
        if seconds:
            yield self.env.timeout(seconds)


class EchoService(Service):
    PORT = 9100

    def __init__(self, env, node):
        super().__init__(env, f"echo-{node.name}", node=node)

    def _on_start(self):
        self.serve(self.PORT)

    @handles("ping")
    def _handle_ping(self, msg, endpoint):
        yield endpoint.send(msg.reply("pong", 8))


def _echo_world():
    env = Environment()
    net = Network(env)
    server = EchoNode(env, net, "srv")
    client = EchoNode(env, net, "cli")
    service = EchoService(env, server)
    service.start()
    return env, service, client


def test_lifecycle_states():
    env = Environment()
    net = Network(env)
    service = EchoService(env, EchoNode(env, net, "srv"))
    assert service.state is ServiceState.NEW
    service.start()
    assert service.state is ServiceState.RUNNING
    service.start()  # idempotent
    assert service.state is ServiceState.RUNNING
    report = service.stop()
    assert service.state is ServiceState.STOPPED
    assert report.dropped == {}
    # All runtime-owned processes are gone.
    assert service._procs == []


def test_dispatch_routes_by_kind_and_counts():
    env, service, client = _echo_world()
    got = {}

    def app(env):
        endpoint = yield env.process(
            client.sockets.connect("srv", EchoService.PORT)
        )
        endpoint.send(Message(kind="ping", size_bytes=16))
        got["reply"] = yield endpoint.recv()

    env.process(app(env))
    env.run()
    assert got["reply"].kind == "pong"
    assert service.svc_stats.messages_handled == 1
    assert service.svc_stats.dispatched == {"ping": 1}
    assert service.svc_stats.queue_high_water >= 1


def test_dispatch_rejects_unknown_kind():
    env, service, client = _echo_world()

    def app(env):
        endpoint = yield env.process(
            client.sockets.connect("srv", EchoService.PORT)
        )
        endpoint.send(Message(kind="bogus", size_bytes=16))

    env.process(app(env))
    # A crashed daemon loop fails the run: nobody waits on the loop's
    # own process event, so that alone would let the failure pass.
    with pytest.raises(ServiceCrashed, match="-conn1") as excinfo:
        env.run()
    cause = excinfo.value.__cause__
    assert isinstance(cause, ValueError)
    assert "unexpected message 'bogus'" in str(cause)
    (conn,) = [p for p in service._procs if "-conn" in p.name]
    assert not conn.ok and conn.value is cause


def test_crashed_daemon_loop_fails_the_run_instead_of_hanging_it(
    monkeypatch,
):
    """A harvester that dies on its first pass leaves the free list dry
    for good; the flusher's period keeps the queue non-empty, so before
    ServiceCrashed this run never returned."""
    from repro.cache.manager import BufferManager

    def broken(self, n):
        raise RuntimeError("select_victims broke")

    monkeypatch.setattr(BufferManager, "select_victims", broken)
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=16)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/crash")
        for i in range(100):
            yield from client.read(f, i * 4096, 4096)

    env = cluster.env
    app_proc = env.process(app(env))
    # A bound in simulated seconds: a regression fails here, not hangs.
    with pytest.raises(ServiceCrashed, match="harvester-node0") as excinfo:
        env.run(until=5.0)
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert "select_victims broke" in str(excinfo.value.__cause__)
    assert app_proc.is_alive


def test_stopped_daemon_loops_do_not_crash_the_run():
    env, service, client = _echo_world()

    def app(env):
        yield env.process(client.sockets.connect("srv", EchoService.PORT))

    env.run(until=env.process(app(env)))
    assert len(service._procs) == 2  # accept loop + one connection
    report = service.stop()
    assert report.total_dropped == 0
    env.run()  # the killed loops end with ProcessKilled: not a crash


def test_handler_inheritance_subclass_wins():
    class Fancy(EchoService):
        @handles("ping")
        def _handle_ping2(self, msg, endpoint):
            yield endpoint.send(msg.reply("fancy-pong", 8))

    env = Environment()
    net = Network(env)
    service = Fancy(env, EchoNode(env, net, "srv"))
    service.start()
    client = EchoNode(env, net, "cli")
    got = {}

    def app(env):
        endpoint = yield env.process(
            client.sockets.connect("srv", EchoService.PORT)
        )
        endpoint.send(Message(kind="ping", size_bytes=16))
        got["reply"] = yield endpoint.recv()

    env.process(app(env))
    env.run()
    assert got["reply"].kind == "fancy-pong"


def test_bus_records_only_reach_subscribers():
    env, service, client = _echo_world()
    bus = get_bus(env)
    assert not bus.subscribers
    records = []
    detach = bus.subscribe(records.append)
    assert bus.subscribers

    def app(env):
        endpoint = yield env.process(
            client.sockets.connect("srv", EchoService.PORT)
        )
        endpoint.send(Message(kind="ping", size_bytes=16))
        yield endpoint.recv()

    env.process(app(env))
    env.run()
    env.run(until=env.process(service.drain()))
    service.stop()
    # A message is counted in ServiceStats, never recorded on the bus.
    assert service.svc_stats.dispatched == {"ping": 1}
    assert [r.kind for r in records] == ["drain", "drained", "stop"]
    detach()
    assert not bus.subscribers


def test_daemon_monitor_and_table():
    env, service, client = _echo_world()

    def app(env):
        endpoint = yield env.process(
            client.sockets.connect("srv", EchoService.PORT)
        )
        for _ in range(3):
            endpoint.send(Message(kind="ping", size_bytes=16))
            yield endpoint.recv()

    env.process(app(env))
    env.run()
    assert service.svc_stats.dispatched == {"ping": 3}
    table = daemon_table(get_bus(env))
    header, row = table.splitlines()
    assert header.split() == [
        "daemon", "node", "state", "handled", "q-high", "busy(s)", "dropped"
    ]
    assert row.split()[:4] == ["echo-srv", "srv", "running", "3"]


def test_cluster_daemons_all_subclass_service():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    assert all(isinstance(s, Service) for s in cluster.services)
    names = {s.svc_stats.service for s in cluster.services}
    assert "mgr" in names
    assert any(n.startswith("iod-") for n in names)
    assert any(n.startswith("writeback-") for n in names)
    assert any(n.startswith("cache-") for n in names)
    # Children (flusher/harvester) ride under their cache module.
    module = cluster.cache_modules["node0"]
    assert module.flusher in module._children
    assert module.harvester in module._children


def test_cluster_bus_sees_traffic():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    bus = get_bus(cluster.env)
    client = cluster.client("node0")

    def app(env):
        handle = yield from client.open("/f")
        yield from client.write(handle, 0, 8192)
        yield from client.read(handle, 0, 8192)

    run_app(cluster, app(cluster.env))
    assert bus.stats["mgr"].dispatched == {protocol.MGR_OPEN: 1}
    assert bus.stats["mgr"].messages_handled == 1
    # The 8 KiB write was absorbed by the cache; flushing it produces
    # the iod traffic (FLUSH batches) the bus should have seen.
    run_app(cluster, cluster.drain_caches())
    iod_stats = bus.stats["iod-node0"]
    assert iod_stats.messages_handled >= 1
    assert iod_stats.busy_s > 0.0


def test_every_kind_the_stock_services_emit_is_a_core_kind():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, caching=True)
    seen = set()
    get_bus(cluster.env).subscribe(lambda record: seen.add(record.kind))
    writer, reader = cluster.client("node0"), cluster.client("node1")

    def app(env):
        f = yield from writer.open("/f")
        g = yield from reader.open("/f")
        yield from writer.write(f, 0, 8192)
        yield from reader.read(g, 0, 8192)
        yield from writer.sync_write(f, 0, 4096)  # invalidates node1's copy
        yield from reader.stat("/f")

    run_app(cluster, app(cluster.env))
    run_app(cluster, cluster.drain_caches())
    assert {"metadata_op", "client_io", "invalidation"} <= seen
    assert seen <= set(CORE_EVENT_KINDS)


def test_a_subscriber_receives_only_the_kinds_it_names():
    env, service, client = _echo_world()
    bus = get_bus(env)
    stops, everything = [], []
    bus.subscribe(stops.append, kinds=("stop",))
    assert "stop" in bus.heard and "drain" not in bus.heard
    detach = bus.subscribe(everything.append)
    assert "drain" in bus.heard

    env.run(until=env.process(service.drain()))
    service.stop()
    assert [r.kind for r in stops] == ["stop"]
    assert [r.kind for r in everything] == ["drain", "drained", "stop"]
    detach()
    assert "drain" not in bus.heard
