"""Tests for the mgr and iod daemons and the raw libpvfs client."""

import pytest

from repro.pvfs import protocol
from tests.conftest import make_cluster, run_app


# -- mgr --------------------------------------------------------------------


def test_open_assigns_stable_ids():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f1 = yield from client.open("/a")
        f2 = yield from client.open("/b")
        f3 = yield from client.open("/a")
        assert f1.file_id != f2.file_id
        assert f3.file_id == f1.file_id
        assert f1.iod_nodes == tuple(cluster.iod_nodes)
        assert f1.stripe_size == cluster.config.stripe_size

    run_app(cluster, app(cluster.env))
    assert cluster.metrics.count("mgr.opens") == 3
    assert cluster.metrics.count("mgr.creates") == 2
    assert cluster.mgr.lookup("/a") is not None
    assert cluster.mgr.lookup("/zzz") is None


def test_opens_from_multiple_nodes_share_namespace():
    cluster = make_cluster(caching=False)
    a = cluster.client("node0")
    b = cluster.client("node1")

    def app(env):
        fa = yield from a.open("/same")
        fb = yield from b.open("/same")
        assert fa.file_id == fb.file_id

    run_app(cluster, app(cluster.env))


# -- iod read/write paths ------------------------------------------------------


def test_raw_write_then_read_roundtrip():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")
    payload = bytes(range(256)) * 512  # 128 KB: spans both iods

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, len(payload), payload)
        back = yield from client.read(f, 0, len(payload), want_data=True)
        assert back == payload

    run_app(cluster, app(cluster.env))


def test_raw_unwritten_reads_zeros():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        data = yield from client.read(f, 0, 8192, want_data=True)
        assert data == b"\x00" * 8192

    run_app(cluster, app(cluster.env))


def test_raw_unaligned_rmw():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 8192, b"A" * 8192)
        yield from client.write(f, 1000, 100, b"B" * 100)
        data = yield from client.read(f, 0, 8192, want_data=True)
        assert data[:1000] == b"A" * 1000
        assert data[1000:1100] == b"B" * 100
        assert data[1100:] == b"A" * 7092

    run_app(cluster, app(cluster.env))


def test_iod_pagecache_hits_on_reread():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 65536)
        misses = m.count("iod.pagecache_misses")
        assert misses > 0
        yield from client.read(f, 0, 65536)
        assert m.count("iod.pagecache_misses") == misses  # all hits
        assert m.count("iod.pagecache_hits") > 0

    run_app(cluster, app(cluster.env))


def test_iod_reread_faster_than_cold():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        t0 = env.now
        yield from client.read(f, 0, 262144)
        cold = env.now - t0
        t0 = env.now
        yield from client.read(f, 0, 262144)
        warm = env.now - t0
        assert warm < cold  # no disk on the second pass

    run_app(cluster, app(cluster.env))


def test_iod_directory_tracks_cache_readers():
    cluster = make_cluster(caching=True)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 4096)
        iod = cluster.iods[0]
        assert iod.directory.sharers(f.file_id, 0) == {"node0"}
        assert iod.directory.sharers(f.file_id, 1) == set()

    run_app(cluster, app(cluster.env))


def test_iod_directory_ignores_raw_readers():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 4096)
        for iod in cluster.iods:
            assert iod.directory.sharers(f.file_id, 0) == set()
            assert iod.stats()["directory_files"] == 0

    run_app(cluster, app(cluster.env))


def test_striping_distributes_to_both_iods():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        # 128 KB = 2 stripes -> both iods serve one
        yield from client.read(f, 0, 131072)
        assert m.count("iod.reads") == 2

    run_app(cluster, app(cluster.env))


def test_raw_sync_write_roundtrip():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.sync_write(f, 0, 4096, b"s" * 4096)
        data = yield from client.read(f, 0, 4096, want_data=True)
        assert data == b"s" * 4096

    run_app(cluster, app(cluster.env))
    assert cluster.metrics.count("iod.sync_writes") == 1


def test_client_data_length_validation():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 100, b"short")

    proc = cluster.env.process(app(cluster.env))
    with pytest.raises(ValueError, match="data length"):
        cluster.env.run(until=proc)


def test_iod_requires_disk_stack():
    from repro.cluster.config import ClusterConfig, CostModel
    from repro.cluster.node import Node
    from repro.metrics import Metrics
    from repro.net import Network
    from repro.pvfs.iod import Iod
    from repro.pvfs.striping import StripeLayout
    from repro.sim import Environment

    env = Environment()
    net = Network(env)
    node = Node(env, "x", net, CostModel(), with_disk=False)
    with pytest.raises(ValueError, match="disk stack"):
        Iod(node, StripeLayout(1, 65536), 0, Metrics())


def test_metrics_not_recorded_when_disabled():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")
    client.record_metrics = False

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 4096)
        yield from client.write(f, 0, 4096, None)
        yield from client.sync_write(f, 0, 4096, None)

    run_app(cluster, app(cluster.env))
    assert cluster.metrics.count("client.reads") == 0
    assert cluster.metrics.count("client.writes") == 0
    assert cluster.metrics.count("client.sync_writes") == 0
