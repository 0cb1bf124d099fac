"""Integration tests for the CacheModule inside a real cluster."""

import pytest

from repro.cache.block import BlockState
from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from tests.conftest import check_invariants_every, make_cluster, run_app


def test_a_size_only_fill_is_fetched_again_by_a_data_read():
    """Bytes a size-only read made valid are not held: a later read on
    the same node that wants them fetches them again instead of copying
    zeros out — from a block the fill left without bytes, and from one
    that held a local write's bytes already."""
    cluster = make_cluster()
    writer = cluster.client("node1")
    reader = cluster.client("node0")
    data = bytes(i * 7 % 251 for i in range(300 * 1024))
    got = {}

    def app(env):
        f = yield from writer.open("/mixed")
        yield from writer.sync_write(f, 0, len(data), data)
        g = yield from reader.open("/mixed")
        yield from reader.read(g, 100 * 1024, 8 * 1024)  # size-only
        got["fill"] = yield from reader.read(g, 0, len(data), want_data=True)
        yield from reader.write(g, 400 * 1024, 100, b"Y" * 100)
        yield from writer.sync_write(f, 400 * 1024, 4096, data[:4096])
        yield from reader.read(g, 400 * 1024, 4096)  # size-only gap fill
        got["gap"] = yield from reader.read(g, 400 * 1024, 4096, want_data=True)

    check_invariants_every(cluster, 1)
    run_app(cluster, app(cluster.env))
    assert got["fill"] == data
    assert got["gap"] == b"Y" * 100 + data[100:4096]


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


def test_no_split_hull_asks_each_iod_for_its_own_stripe_units_only():
    """The ablation takes one hull over a segment's missing ranges
    before striping it, so on two iods a 148 KB read around one cached
    block (block 16, the third stripe unit's first) re-fetches that
    block but no other iod's units: at most the read's 151 552 bytes
    (147 456 with splitting on)."""
    cluster = make_cluster(iod_nodes=2)
    for module in cluster.cache_modules.values():
        module.config.split_on_cached_block = False
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 16 * 4096, 4096)
        fetched_before = m.count("cache.fetched_bytes")
        yield from client.read(f, 0, 148 * 1024)
        assert m.count("cache.fetched_bytes") - fetched_before <= 151_552

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


@pytest.mark.parametrize("copy", ["plain", "readahead", "list-io"])
def test_sync_write_invalidates_remote_cache(copy):
    """The paper's coherence contract, for each way a copy gets into a
    cache: node0 writes the old bytes, node1 takes a copy, node2
    ``sync_write``s, and node1's next read returns node2's bytes.

    The readahead and list-I/O copies span several blocks per iod
    request, and node2 overwrites a block that is not the first of
    one, so the iod must note every block it serves as shared.
    """
    bs = 4096
    cluster = Cluster(
        ClusterConfig(
            compute_nodes=3,
            iod_nodes=2,
            cache=CacheConfig(readahead=copy == "readahead"),
        )
    )
    check_invariants_every(cluster, 1)
    seeder, holder, writer = (cluster.client(f"node{i}") for i in range(3))
    m = cluster.metrics

    def app(env):
        f = yield from seeder.open("/f")
        yield from seeder.sync_write(f, 0, 8 * bs, b"1" * 8 * bs)
        if copy == "list-io":
            parts = yield from holder.readv(
                f, [(0, 2 * bs), (4 * bs, 2 * bs)], want_data=True
            )
            assert parts == [b"1" * 2 * bs] * 2
            written = [(bs, bs), (5 * bs, bs)]
            yield from writer.writev(f, written, [b"2" * bs] * 2, sync=True)
            parts = yield from holder.readv(f, written, want_data=True)
        else:
            if copy == "plain":
                yield from holder.read(f, 4 * bs, bs)
            else:
                # Two sequential reads open a four-block window, so
                # blocks 2-5 come in by one prefetch alone.
                yield from holder.read(f, 0, bs)
                yield from holder.read(f, bs, bs)
                yield env.timeout(20e-3)
                assert m.count("prefetch.completed") == 4
            resident = set(cluster.cache_modules["node1"].manager.table)
            assert (f.file_id, 4) in resident
            written = [(4 * bs, bs)]
            yield from writer.sync_write(f, 4 * bs, bs, b"2" * bs)
            part = yield from holder.read(f, 4 * bs, bs, want_data=True)
            parts = [part]
        assert m.count("cache.invalidations_received") >= 1
        assert parts == [b"2" * bs] * len(written)

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
    else."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
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
    # 3 x 400 reads + 28 for the reader process, the flusher and the
    # iod's writeback of its batch (29 when writeback was a FIFO of
    # writes: a mailbox put and get where a wake-up now does).
    assert events == 1228
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
        assert stats["readahead"] is False
        assert stats["flush_inflight"] == 0
        module = cluster.cache_modules["node0"]
        yield from module.flusher.initiate_flush(
            list(module.manager.dirtylist)
        )
        assert module.stats()["flush_inflight"] == 2  # both marked

    run_app(cluster, app(cluster.env))


def test_module_start_idempotent():
    cluster = make_cluster()
    module = cluster.cache_modules["node0"]
    module.start()  # second start must not double-listen
    module.start()
