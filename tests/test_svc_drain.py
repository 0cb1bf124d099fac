"""Drain semantics: drain() then kill loses nothing; bare stop() reports it."""

from repro.disk.model import DiskModel
from repro.disk.writeback import WritebackDaemon, WritebackItem
from repro.sim import Environment

from tests.conftest import check_invariants_every, make_cluster, run_app

DATA = bytes(range(256)) * 64  # 16 KiB of recognisable bytes


def _dirty_up(cluster, node="node0", path="/data/f"):
    """Write real payload bytes through the cache; returns the handle."""
    client = cluster.client(node)
    state = {}

    def app(env):
        handle = yield from client.open(path)
        yield from client.write(handle, 0, len(DATA), DATA)
        state["handle"] = handle

    run_app(cluster, app(cluster.env))
    return state["handle"]


def test_drain_then_kill_loses_zero_dirty_blocks():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    _dirty_up(cluster)
    module = cluster.cache_modules["node0"]
    assert module.manager.n_dirty > 0  # the write really was cached dirty

    # Drain the writer node (cache flusher), then the storage nodes
    # (disk writeback), exactly as an orderly shutdown would.
    run_app(cluster, cluster.drain_node("node0"))
    assert module.manager.n_dirty == 0
    for name in cluster.iod_nodes:
        run_app(cluster, cluster.drain_node(name))

    # The flushed bytes must now be readable from a *different* node.
    reader = cluster.client("node1")

    def check(env):
        handle = yield from reader.open("/data/f")
        data = yield from reader.read(handle, 0, len(DATA), want_data=True)
        assert data == DATA

    run_app(cluster, check(cluster.env))

    # Kill everything: a post-drain stop drops no work anywhere.
    reports = cluster.stop_services()
    for report in reports:
        for entry in report.flat():
            assert entry.total_dropped == 0, entry


def test_stop_without_drain_reports_dropped_blocks():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    _dirty_up(cluster)
    module = cluster.cache_modules["node0"]
    n_dirty = module.manager.n_dirty
    assert n_dirty > 0

    reports = cluster.stop_node("node0")
    (module_report,) = [r for r in reports if r.service.startswith("cache-")]
    flusher_reports = [
        r for r in module_report.flat() if r.service.startswith("flusher-")
    ]
    assert flusher_reports[0].dropped == {"dirty_blocks": n_dirty}
    assert module_report.total_dropped == n_dirty
    # The always-on stats table records the loss too.
    assert module.flusher.svc_stats.dropped == {"dirty_blocks": n_dirty}


def test_writeback_drain_then_stop_is_clean():
    env = Environment()
    daemon = WritebackDaemon(env, DiskModel(env))
    daemon.start()

    def app(env):
        for i in range(4):
            yield from daemon.submit(WritebackItem(1, i * 65536, 65536))
        yield from daemon.drain()

    run = env.process(app(env))
    env.run(until=run)
    assert daemon.idle()
    # The four adjacent items were dirty together: one run.
    assert daemon.runs_written == 1
    assert daemon.bytes_written == 4 * 65536
    report = daemon.stop()
    assert report.dropped == {}


def test_writeback_stop_without_drain_reports_backlog():
    env = Environment()
    daemon = WritebackDaemon(env, DiskModel(env))
    daemon.start()

    def app(env):
        for i in range(4):
            yield from daemon.submit(WritebackItem(1, i * 65536, 65536))

    env.run(until=env.process(app(env)))
    # Submissions are instant; the slow disk still owes all the bytes.
    assert daemon.dirty_bytes == 4 * 65536
    report = daemon.stop()
    assert report.dropped == {"dirty_pages": 64, "dirty_bytes": 4 * 65536}
    assert report.total_dropped > 0


def test_drain_semantics_hold_the_cache_invariant():
    """The drain/stop paths keep every cache's block accounting
    consistent, checked on every 32nd processed event."""
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    check_invariants_every(cluster, 32)
    _dirty_up(cluster)
    run_app(cluster, cluster.drain_node("node0"))
    assert cluster.cache_modules["node0"].manager.n_dirty == 0
    reports = cluster.stop_node("node0")
    assert all(
        entry.total_dropped == 0 for r in reports for entry in r.flat()
    )
