"""Integration tests for the CacheModule inside a real cluster."""

import pytest

from repro.cache.block import BlockState
from tests.conftest import make_cluster, run_app


def test_read_miss_then_hit_counters():
    cluster = make_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 16384)
        assert m.count("cache.misses") == 4
        assert m.count("cache.hits") == 0
        yield from client.read(f, 0, 16384)
        assert m.count("cache.hits") == 4

    run_app(cluster, app(cluster.env))


def test_second_read_is_much_faster():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        t0 = env.now
        yield from client.read(f, 0, 65536)
        cold = env.now - t0
        t0 = env.now
        yield from client.read(f, 0, 65536)
        warm = env.now - t0
        assert warm < cold / 3

    run_app(cluster, app(cluster.env))


def test_inter_process_hit_on_same_node():
    """Process B hits on blocks process A fetched — the paper's core
    inter-application mechanism."""
    cluster = make_cluster()
    a = cluster.client("node0")
    b = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        fa = yield from a.open("/shared")
        fb = yield from b.open("/shared")
        yield from a.read(fa, 0, 32768)
        misses_after_a = m.count("cache.misses")
        yield from b.read(fb, 0, 32768)
        assert m.count("cache.misses") == misses_after_a  # all hits
        assert m.count("cache.hits") == 8

    run_app(cluster, app(cluster.env))


def test_concurrent_same_block_fetch_deduplicated():
    """Two processes missing the same block issue ONE iod fetch."""
    cluster = make_cluster()
    a = cluster.client("node0")
    b = cluster.client("node0")
    m = cluster.metrics
    done = []

    def reader(env, client, tag):
        f = yield from client.open("/shared")
        yield from client.read(f, 0, 8192)
        done.append(tag)

    env = cluster.env
    procs = [
        env.process(reader(env, a, "a")),
        env.process(reader(env, b, "b")),
    ]
    env.run(until=env.all_of(procs))
    assert sorted(done) == ["a", "b"]
    assert m.count("cache.allocations") == 2  # 2 blocks, not 4
    assert m.count("cache.pending_waits") >= 1


def test_request_splitting_on_cached_middle_block():
    """A cached block in the middle of a run splits the miss request."""
    cluster = make_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        # Cache only the middle block of a 3-block run.
        yield from client.read(f, 4096, 4096)
        splits_before = m.count("cache.split_requests")
        yield from client.read(f, 0, 12288)
        assert m.count("cache.split_requests") == splits_before + 1

    run_app(cluster, app(cluster.env))


def test_no_split_ablation_fetches_hull():
    cluster = make_cluster()
    for module in cluster.cache_modules.values():
        module.config.split_on_cached_block = False
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 4096, 4096)
        fetched_before = m.count("cache.fetched_bytes")
        yield from client.read(f, 0, 12288)
        # hull mode: requested ranges cover all 3 blocks' bytes even
        # though the middle one was cached
        assert m.count("cache.split_requests") == 0

    run_app(cluster, app(cluster.env))


def test_write_is_buffered_not_propagated():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 8192, b"w" * 8192)
        module = cluster.cache_modules["node0"]
        assert module.manager.n_dirty == 2
        # nothing has reached the iods yet
        assert cluster.metrics.count("iod.flush_batches") == 0

    run_app(cluster, app(cluster.env))


def test_flusher_cleans_dirty_blocks():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 8192, b"w" * 8192)
        module = cluster.cache_modules["node0"]
        # wait past a flush period
        yield env.timeout(module.config.flush_period_s * 3)
        assert module.manager.n_dirty == 0
        assert cluster.metrics.count("flusher.blocks_cleaned") == 2

    run_app(cluster, app(cluster.env))


def test_write_read_roundtrip_through_cache():
    cluster = make_cluster()
    client = cluster.client("node0")
    payload = bytes(range(256)) * 32  # 8192 bytes

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 100, 8192, payload)
        data = yield from client.read(f, 100, 8192, want_data=True)
        assert data == payload

    run_app(cluster, app(cluster.env))


def test_partial_block_write_then_full_read():
    """Sub-block write followed by a larger read: the gap-fetch path
    merges iod data with locally dirty bytes."""
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        raw = cluster.client("node0", use_cache=False)
        base = bytes([7]) * 8192
        yield from raw.write(f, 0, 8192, base)  # iod holds 0x07
        yield from client.write(f, 1000, 500, b"\xAA" * 500)
        data = yield from client.read(f, 0, 8192, want_data=True)
        assert data[:1000] == base[:1000]
        assert data[1000:1500] == b"\xAA" * 500
        assert data[1500:] == base[1500:]

    run_app(cluster, app(cluster.env))


def test_sync_write_propagates_and_cleans():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.sync_write(f, 0, 4096, b"s" * 4096)
        module = cluster.cache_modules["node0"]
        assert module.manager.n_dirty == 0  # written through
        assert cluster.metrics.count("iod.sync_writes") >= 1
        # data visible to a raw (uncached) reader immediately
        raw = cluster.client("node1", use_cache=False)
        data = yield from raw.read(f, 0, 4096, want_data=True)
        assert data == b"s" * 4096

    run_app(cluster, app(cluster.env))


def test_sync_write_invalidates_remote_cache():
    cluster = make_cluster()
    a = cluster.client("node0")
    b = cluster.client("node1")

    def app(env):
        f = yield from a.open("/f")
        yield from a.sync_write(f, 0, 4096, b"1" * 4096)
        d1 = yield from b.read(f, 0, 4096, want_data=True)  # node1 caches
        assert d1 == b"1" * 4096
        yield from a.sync_write(f, 0, 4096, b"2" * 4096)
        assert cluster.metrics.count("cache.invalidations_received") >= 1
        d2 = yield from b.read(f, 0, 4096, want_data=True)
        assert d2 == b"2" * 4096

    run_app(cluster, app(cluster.env))


def test_default_write_is_not_coherent():
    """The paper's default path: a remote cache holding an old copy
    keeps returning it after a plain write elsewhere."""
    cluster = make_cluster()
    a = cluster.client("node0")
    b = cluster.client("node1")

    def app(env):
        f = yield from a.open("/f")
        yield from a.sync_write(f, 0, 4096, b"1" * 4096)
        d1 = yield from b.read(f, 0, 4096, want_data=True)
        assert d1 == b"1" * 4096
        yield from a.write(f, 0, 4096, b"2" * 4096)  # non-coherent
        yield env.timeout(1.0)  # even after flushing
        d2 = yield from b.read(f, 0, 4096, want_data=True)
        assert d2 == b"1" * 4096  # stale by design

    run_app(cluster, app(cluster.env))


def test_eviction_under_capacity_pressure():
    cluster = make_cluster(cache_blocks=16)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        # touch 4x the cache size
        for i in range(16):
            yield from client.read(f, i * 16384, 16384)
        module = cluster.cache_modules["node0"]
        assert module.manager.n_resident <= 16
        assert cluster.metrics.count("cache.evictions") > 0

    run_app(cluster, app(cluster.env))


def test_write_blocks_when_cache_full_then_completes():
    """The paper: large writes block for cache space but progress as
    the flusher drains."""
    cluster = make_cluster(cache_blocks=8)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 32 * 4096, None)  # 4x cache
        return env.now

    t = run_app(cluster, app(cluster.env))
    assert t > 0
    assert cluster.metrics.count("cache.write_requests") == 1


def test_zero_byte_operations():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        data = yield from client.read(f, 0, 0, want_data=True)
        assert data == b""
        yield from client.write(f, 0, 0, b"")
        yield from client.sync_write(f, 0, 0, b"")

    run_app(cluster, app(cluster.env))


def test_segmentation_of_large_requests():
    cluster = make_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        seg = cluster.cache_modules["node0"].config.effective_segment_blocks
        nbytes = (seg * 3) * 4096
        yield from client.read(f, 0, nbytes)
        assert m.count("cache.read_segments") == 3

    run_app(cluster, app(cluster.env))


def test_fully_hit_segment_counter():
    cluster = make_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 4096)
        yield from client.read(f, 0, 4096)
        assert m.count("cache.fully_hit_segments") == 1

    run_app(cluster, app(cluster.env))


def test_resident_read_costs_three_events():
    """What the paper's hit path costs the scheduler: three timeouts
    per resident 4 KB read (syscall, lookup, copy-out) and nothing
    else.  Literals taken at the validated disk model, which the
    config pins: the write-behind flush of the region overlaps the
    reads and the queued disk model spends two events fewer on it."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, disk_model="mech")
    env = cluster.env
    client = cluster.client("node0")
    region, n_reads = 128 * 1024, 400

    def setup(env):
        f = yield from client.open("/hot")
        yield from client.write(f, 0, region)
        return f

    f = run_app(cluster, setup(env))

    def reader(env):
        for i in range(n_reads):
            yield from client.read(f, (i * 4096) % region, 4096)

    events_before = env.sched_stats()["events_processed"]
    run_app(cluster, reader(env))
    events = env.sched_stats()["events_processed"] - events_before
    # 3 x 400 reads + 31 for the reader process and the flusher.
    assert events == 1231
    assert env.now == 0.04345000000000072
    m = cluster.metrics
    assert m.count("cache.hits") == m.count("cache.read_requests") == n_reads


def test_faked_acks_recorded():
    cluster = make_cluster()
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 65536 * 2)  # spans both iods
        assert m.count("cache.faked_acks") >= 2

    run_app(cluster, app(cluster.env))


def test_large_unaligned_read_across_pipelined_segments():
    """A multi-segment, unaligned read must assemble bytes correctly
    through the depth-2 segment pipeline."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=2)
    client = cluster.client("node0")
    raw = cluster.client("node0", use_cache=False)
    seg_bytes = (
        cluster.cache_modules["node0"].config.effective_segment_blocks * 4096
    )
    span = 3 * seg_bytes + 5000  # several segments, ragged edges
    payload = bytes(range(256)) * ((1234 + span) // 256 + 1)

    def app(env):
        f = yield from client.open("/big")
        yield from raw.write(f, 0, len(payload), payload)
        got = yield from client.read(f, 1234, span, want_data=True)
        assert got == payload[1234 : 1234 + span]
        # and again, fully from cache
        got2 = yield from client.read(f, 1234, span, want_data=True)
        assert got2 == payload[1234 : 1234 + span]

    run_app(cluster, app(cluster.env))


def test_mixed_sync_and_buffered_writes_single_node():
    """sync_write then buffered overwrite then read: latest data wins
    locally regardless of path."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/mix")
        yield from client.sync_write(f, 0, 8192, b"A" * 8192)
        yield from client.write(f, 2000, 3000, b"B" * 3000)
        got = yield from client.read(f, 0, 8192, want_data=True)
        assert got[:2000] == b"A" * 2000
        assert got[2000:5000] == b"B" * 3000
        assert got[5000:] == b"A" * 3192
        # after draining, the iod agrees
        yield from cluster.drain_caches()
        raw = cluster.client("node0", use_cache=False)
        back = yield from raw.read(f, 0, 8192, want_data=True)
        assert back == got

    run_app(cluster, app(cluster.env))


def test_module_stats_snapshot():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/s")
        yield from client.write(f, 0, 8192, None)
        stats = cluster.cache_modules["node0"].stats()
        assert stats["dirty"] == 2
        assert stats["resident"] == 2
        assert stats["free"] == stats["n_blocks"] - 2
        assert stats["states"]["dirty"] == 2
        assert stats["gcache"] is False

    run_app(cluster, app(cluster.env))


def test_module_start_idempotent():
    cluster = make_cluster()
    module = cluster.cache_modules["node0"]
    module.start()  # second start must not double-listen
    module.start()
