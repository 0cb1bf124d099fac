"""Tests for the resource monitor."""

import math

import pytest

from repro.metrics.monitor import ResourceMonitor
from repro.sim import Environment
from tests.conftest import make_cluster


def test_monitor_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ResourceMonitor(env, interval_s=0)


def test_monitor_samples_at_interval():
    env = Environment()
    monitor = ResourceMonitor(env, interval_s=1.0)
    counter = {"v": 0}
    monitor.track("v", lambda: counter["v"])
    monitor.start()

    def workload(env):
        for _ in range(5):
            counter["v"] += 10
            yield env.timeout(1.0)

    env.process(workload(env))
    env.run(until=5.5)
    assert len(monitor.times) == 6  # t = 0..5
    assert monitor.series("v")[0] == 0
    assert monitor.peak("v") == 50
    assert monitor.mean("v") > 0
    assert monitor.time_above("v", 25) == 3.0  # samples at 30, 40, 50


def test_monitor_duplicate_probe_rejected():
    env = Environment()
    monitor = ResourceMonitor(env)
    monitor.track("a", lambda: 0)
    with pytest.raises(ValueError):
        monitor.track("a", lambda: 1)


def test_monitor_double_start_rejected():
    env = Environment()
    monitor = ResourceMonitor(env)
    monitor.start()
    with pytest.raises(RuntimeError):
        monitor.start()


def test_monitor_late_probe_backfills_nan():
    env = Environment()
    monitor = ResourceMonitor(env, interval_s=1.0)
    monitor.track("early", lambda: 1.0)
    monitor.start()

    def add_late(env):
        yield env.timeout(2.5)
        monitor.track("late", lambda: 2.0)

    env.process(add_late(env))
    env.run(until=5)
    assert len(monitor.series("late")) == len(monitor.series("early"))
    assert math.isnan(monitor.series("late")[0])
    assert monitor.peak("late") == 2.0


def test_monitor_stop():
    env = Environment()
    monitor = ResourceMonitor(env, interval_s=1.0)
    monitor.track("x", lambda: 1)
    monitor.start()

    def stopper(env):
        yield env.timeout(2.5)
        monitor.stop()

    env.process(stopper(env))
    env.run(until=10)
    assert len(monitor.times) == 3  # t = 0, 1, 2 (stopped before 3)


def test_monitor_table_and_sparkline():
    env = Environment()
    monitor = ResourceMonitor(env, interval_s=0.5)
    value = {"v": 0.0}
    monitor.track("load", lambda: value["v"])
    monitor.start()

    def workload(env):
        for i in range(6):
            value["v"] = float(i)
            yield env.timeout(0.5)

    env.process(workload(env))
    env.run(until=3)
    table = monitor.table()
    assert "load" in table and "t(s)" in table
    assert len(monitor.sparkline("load")) == len(monitor.times)


def test_monitor_empty_table():
    env = Environment()
    assert ResourceMonitor(env).table() == "(no samples)"


def test_monitor_on_real_cluster_cache_occupancy():
    """Watch the cache fill during a workload."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=32)
    module = cluster.cache_modules["node0"]
    monitor = ResourceMonitor(cluster.env, interval_s=0.005)
    monitor.track("resident", lambda: module.manager.n_resident)
    monitor.track("dirty", lambda: module.manager.n_dirty)
    monitor.start()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/fill")
        for i in range(16):
            yield from client.read(f, i * 16384, 16384)

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)
    assert monitor.peak("resident") > 0
    assert monitor.peak("resident") <= 32


# -- scheduler line of the --daemons summary ---------------------------------


def test_daemon_summary_scheduler_line_fields():
    import io

    from repro.experiments.report import daemon_summary

    stream = io.StringIO()
    daemon_summary(stream=stream)
    line = next(
        ln for ln in stream.getvalue().splitlines()
        if ln.startswith("[scheduler:")
    )
    for field in (
        "events",
        "taken in place",
        "depth hw",
        "timers cancelled",
        "entries purged",
    ):
        assert field in line


# -- per-mgr-shard instrumentation -------------------------------------------


def _staggered_share(cluster):
    """node1 reads a file, then node0 sync_writes it (forces fan-out)."""
    client1 = cluster.client("node1")
    client0 = cluster.client("node0")

    def reader(env):
        handle = yield from client1.open("/data/shared")
        yield from client1.read(handle, 0, 256 * 1024)

    def writer(env):
        handle = yield from client0.open("/data/shared")
        yield from client0.sync_write(handle, 0, 64 * 1024)

    cluster.env.run(until=cluster.env.process(reader(cluster.env)))
    cluster.env.run(until=cluster.env.process(writer(cluster.env)))


def test_daemon_monitor_tracks_metadata_ops_per_shard():
    from repro.metrics import DaemonMonitor
    from repro.pvfs import protocol
    from repro.svc import get_bus

    cluster = make_cluster(mgr_shards=2)
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    owner = protocol.mgr_shard_of("/data/shared", 2)
    # Both opens hit the owning shard; the other shard saw nothing.
    assert monitor.metadata_ops == {owner: 2}
    monitor.close()


def test_daemon_monitor_attributes_invalidation_fanout_to_owner():
    from repro.metrics import DaemonMonitor
    from repro.pvfs import protocol
    from repro.svc import get_bus

    cluster = make_cluster(mgr_shards=2)
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    owner = protocol.mgr_shard_of("/data/shared", 2)
    # The sync_write invalidated node1's cached copy; the fan-out is
    # charged to the owning shard only — the cache module's
    # receive-side invalidation record must not leak into shard 0.
    assert monitor.invalidation_fanout == {owner: 1}
    monitor.close()


def test_mgr_shard_table_one_row_per_shard():
    from repro.metrics import DaemonMonitor
    from repro.svc import get_bus

    cluster = make_cluster(mgr_shards=4)
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    table = monitor.mgr_shard_table(duration_s=cluster.env.now)
    lines = table.splitlines()
    assert lines[0].split() == [
        "shard", "node", "meta-ops", "ops/s", "q-high", "inval-out"
    ]
    assert len(lines) == 5  # header + 4 shards
    assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    monitor.close()


def test_mgr_shard_table_single_shard_is_plain_mgr():
    from repro.metrics import DaemonMonitor
    from repro.svc import get_bus

    cluster = make_cluster()
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    table = monitor.mgr_shard_table(duration_s=cluster.env.now)
    lines = table.splitlines()
    assert len(lines) == 2
    row = lines[1].split()
    assert row[0] == "0"
    assert int(row[2]) == 2  # both opens
    assert float(row[3]) > 0  # ops/s computed from duration
    monitor.close()


def test_mgr_shard_table_no_cluster():
    from repro.metrics import DaemonMonitor
    from repro.svc import get_bus

    env = Environment()
    monitor = DaemonMonitor(get_bus(env))
    assert monitor.mgr_shard_table() == "(no mgr shards registered)"
    monitor.close()


def test_daemon_summary_prints_mgr_shard_rows():
    import io

    from repro.experiments.report import daemon_summary

    stream = io.StringIO()
    daemon_summary(stream=stream)
    out = stream.getvalue()
    assert "metadata shards:" in out
    assert "inval-out" in out
