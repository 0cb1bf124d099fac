"""Tests for the sequential readahead extension."""

import pytest

from repro.cache.prefetch import ReadAhead
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.cluster.cluster import Cluster
from tests.conftest import check_invariants_every


def make_ra_cluster(**cache_kw):
    cache = CacheConfig(readahead=True, **cache_kw)
    config = ClusterConfig(
        compute_nodes=1, iod_nodes=1, caching=True, cache=cache
    )
    return Cluster(config)


def test_readahead_window_validation():
    cluster = make_ra_cluster()
    module = cluster.cache_modules["node0"]
    with pytest.raises(ValueError):
        ReadAhead(module, initial_window=0)
    with pytest.raises(ValueError):
        ReadAhead(module, initial_window=8, max_window=4)


def test_readahead_disabled_by_default():
    from tests.conftest import make_cluster

    cluster = make_cluster()
    assert cluster.cache_modules["node0"].readahead is None


def test_sequential_reads_trigger_prefetch():
    cluster = make_ra_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/ra")
        # two sequential reads establish the stream
        yield from client.read(f, 0, 8192)
        yield from client.read(f, 8192, 8192)
        assert m.count("prefetch.issued") > 0
        # let the background prefetch land
        yield env.timeout(0.1)
        # the NEXT sequential read should be fully cached
        misses_before = m.count("cache.misses")
        yield from client.read(f, 16384, 8192)
        assert m.count("cache.misses") == misses_before

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)
    assert m.count("prefetch.completed") > 0


def test_random_reads_do_not_prefetch():
    cluster = make_ra_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/rand")
        for block in (40, 3, 77, 12, 55):
            yield from client.read(f, block * 4096, 4096)
        assert m.count("prefetch.issued") == 0

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)


def test_window_doubles_then_resets():
    cluster = make_ra_cluster()
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        f = yield from client.open("/w")
        yield from client.read(f, 0, 4096)
        yield from client.read(f, 4096, 4096)
        s = module.readahead._streams[f.file_id]
        first_window = s.window
        assert first_window >= module.readahead.initial_window
        yield from client.read(f, 8192, 4096)
        assert s.window >= first_window  # grew (or capped)
        # jump far away: reset
        yield from client.read(f, 100 * 4096, 4096)
        assert s.window == 0

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)


def test_window_capped_at_max():
    cluster = make_ra_cluster()
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        f = yield from client.open("/cap")
        for i in range(12):
            yield from client.read(f, i * 4096, 4096)
        s = module.readahead._streams[f.file_id]
        assert s.window <= module.readahead.max_window

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)


def test_prefetch_reduces_sequential_scan_time():
    """A sequential whole-file scan should be faster with readahead."""

    def scan(readahead: bool) -> float:
        cache = CacheConfig(readahead=readahead)
        config = ClusterConfig(
            compute_nodes=1, iod_nodes=1, caching=True, cache=cache
        )
        cluster = Cluster(config)
        client = cluster.client("node0")

        def app(env):
            f = yield from client.open("/scan")
            t0 = env.now
            for i in range(32):
                yield from client.read(f, i * 16384, 16384)
                # think time lets the background prefetch run ahead
                yield env.timeout(2e-3)
            return env.now - t0

        proc = cluster.env.process(app(cluster.env))
        return cluster.env.run(until=proc)

    plain = scan(False)
    fetched_ahead = scan(True)
    assert fetched_ahead < plain


def test_prefetch_data_integrity():
    """Prefetched blocks must carry the real bytes."""
    cluster = make_ra_cluster()
    client = cluster.client("node0")
    raw = cluster.client("node0", use_cache=False)

    def app(env):
        f = yield from client.open("/ints")
        payload = bytes(range(256)) * 16 * 8  # 32 KB
        yield from raw.write(f, 0, len(payload), payload)
        yield from client.read(f, 0, 4096)
        yield from client.read(f, 4096, 4096)  # triggers prefetch
        yield env.timeout(0.1)
        got = yield from client.read(f, 8192, 8192, want_data=True)
        assert got == payload[8192:16384]

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)


def test_prefetch_respects_free_budget():
    """Prefetch never drains more than a quarter of the free pool."""
    cluster = make_ra_cluster(size_bytes=16 * 4096)  # 16 blocks
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/budget")
        yield from client.read(f, 0, 4096)
        yield from client.read(f, 4096, 4096)
        yield env.timeout(0.05)
        module = cluster.cache_modules["node0"]
        # demand blocks (2) + at most a quarter of free for prefetch
        assert module.manager.n_resident <= 2 + 16 // 4 + 1

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)


def test_shared_stream_feeds_sibling_process():
    """Inter-application readahead: process A's sequential scan
    prefetches blocks process B then reads for free."""
    cluster = make_ra_cluster()
    a = cluster.client("node0")
    b = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        fa = yield from a.open("/stream")
        fb = yield from b.open("/stream")
        yield from a.read(fa, 0, 8192)
        yield from a.read(fa, 8192, 8192)  # prefetch issued
        yield env.timeout(0.1)
        misses_before = m.count("cache.misses")
        yield from b.read(fb, 16384, 8192)  # B rides A's readahead
        assert m.count("cache.misses") == misses_before

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)


def test_invalidation_of_an_in_flight_prefetch_is_not_undone():
    """Can an in-flight readahead put back a block that an invalidation
    just dropped?  node1's sequential reads of blocks 12 and 13 start a
    prefetch of blocks 14-17.  Blocks 14-15 sit on iod0, whose page
    cache holds them; blocks 16-17 sit on iod1, which reads them off
    its cold disk, so block 14 stays PENDING for about 15 ms.  node2's
    ``sync_write`` of block 14 reaches iod0 after iod0 has served the
    prefetch, so its invalidation reaches node1 while block 14 is
    still PENDING.  node1's reads issued after the ``sync_write`` has
    returned must see node2's bytes, before the prefetch lands and
    after."""
    bs = 4096
    cluster = Cluster(
        ClusterConfig(
            compute_nodes=3,
            iod_nodes=2,
            cache=CacheConfig(readahead=True),
        )
    )
    check_invariants_every(cluster, 1)
    seeder, holder, writer = (cluster.client(f"node{i}") for i in range(3))
    m = cluster.metrics

    def app(env):
        f = yield from seeder.open("/ra-race")
        yield from seeder.sync_write(f, 0, 16 * bs, b"1" * 16 * bs)
        yield from holder.read(f, 12 * bs, bs)
        yield from holder.read(f, 13 * bs, bs)  # prefetch of 14-17
        yield from writer.sync_write(f, 14 * bs, bs, b"2" * bs)
        assert m.count("cache.deferred_invalidations") >= 1
        data = yield from holder.read(f, 14 * bs, bs, want_data=True)
        assert data == b"2" * bs
        assert m.count("prefetch.completed") == 0
        yield env.timeout(30e-3)
        assert m.count("prefetch.completed") >= 4
        data = yield from holder.read(f, 14 * bs, bs, want_data=True)
        assert data == b"2" * bs

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)
