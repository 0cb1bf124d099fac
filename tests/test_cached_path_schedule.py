"""Schedule pins for the cached data path and libpvfs's metadata calls.

The caching-on sibling of ``test_raw_path_schedule.py``: each scenario
records ``(trace hash, events processed)``, so a refactor of how a
request is planned, split around cached blocks or issued shows up as a
changed digest even when every figure holds.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.workload import MicroBenchmark, MicroBenchParams

KB = 1024
MB = 2**20

#: ``(mode, request size) -> (trace hash, events processed)`` of a
#: caching-on micro-benchmark at p = 3 with real bytes and warm-up.
GOLDEN_CACHED_MICRO = {
    ("read", 4 * KB): ("b5a8150ba8ad30dd7dc6fd52a8a4b8fb", 1543),
    ("read", MB): ("4bee089681e176cb9d0c6cbf068b6c69", 12234),
    ("write", 4 * KB): ("1a556da7f42a754949c9843d266f66aa", 769),
    ("write", MB): ("7e7c845565b33d3a30b6a7b7abe05831", 19785),
    ("sync_write", 4 * KB): ("b62ad7c833c9d8abe18aa6b932070c21", 1016),
    ("sync_write", MB): ("e5a830beff8d6a75a0e1eb7b80f814de", 12659),
}

#: ``scenario -> (trace hash, events processed)`` of the runs below.
GOLDEN_CACHED = {
    "list_splice": ("89fb657c9b31927c2de0e0db549d8fe9", 1217),
    "one_iod": ("147ecdcf3c34226bf496b83d84e4a5f5", 592),
    "readahead": ("ab7aff3a91f087d0c6a3e45a6974e218", 1060),
    "no_split": ("602d8f27e9afac765b752c0e1f45000d", 1042),
    "metadata": ("4c1d063b7ce0a3612d7dc0a415096e94", 153),
    # Re-pinned once (2578f7ef…/1424 → 6b04ac4b…/1421) when the cached
    # fetch began issuing its per-iod calls in iod-index order, as
    # libpvfs does, instead of node-name order (node10 before node2).
    "twelve_iods": ("6b04ac4b0bf3345938e64296ed41a54d", 1421),
}


def _cluster(**kwargs) -> Cluster:
    kwargs.setdefault("compute_nodes", 3)
    kwargs.setdefault("iod_nodes", 3)
    cluster = Cluster(ClusterConfig(caching=True, **kwargs))
    cluster.env.enable_trace_hash()
    return cluster


def _observed(cluster: Cluster) -> tuple[str, int]:
    env = cluster.env
    return env.trace_hash(), env.sched_stats()["events_processed"]


def _run(cluster: Cluster, body) -> None:
    env = cluster.env
    env.run(until=env.process(body()))


@pytest.mark.parametrize("mode, size", sorted(GOLDEN_CACHED_MICRO))
def test_cached_micro_benchmark_schedule_is_pinned(mode, size):
    cluster = _cluster()
    env = cluster.env
    params = MicroBenchParams(
        nodes=cluster.config.compute_node_names(),
        request_size=size,
        iterations=6,
        mode=mode,
        locality=0.3,
        partition_bytes=2 * MB,
        want_data=True,
        warmup=True,
        seed=11,
    )
    env.run(until=env.all_of(MicroBenchmark(params).spawn(cluster)))
    assert _observed(cluster) == GOLDEN_CACHED_MICRO[(mode, size)]


#: Ranges that straddle the 64 KB stripe boundaries (three iods), one
#: that spans a whole stripe round, and two that abut; none is
#: block-aligned, so the cache holds their end blocks partly valid.
STRADDLING = [
    (64 * KB - 1000, 3000),
    (3 * 64 * KB - 512, 200 * KB),
    (600 * KB, 100),
    (600 * KB + 100, 5000),
]


def _widened(ranges, by=700):
    """Each range grown by ``by`` bytes on both sides: a read of them
    is a partial hit on every partly valid end block."""
    return [(off - by, n + 2 * by) for off, n in ranges]


def _image(writes, size=MB):
    """The file's bytes after ``writes``, ``(ranges, chunks)`` pairs."""
    image = bytearray(size)
    for ranges, chunks in writes:
        for (off, n), chunk in zip(ranges, chunks):
            image[off : off + n] = chunk
    return image


def test_cached_list_io_with_partial_hit_splices_is_pinned():
    """Coherent and buffered ``writev`` leave partly valid blocks; a
    ``readv`` of wider ranges fetches only their gaps and splices them
    in, on the writer's node and on a remote one."""
    cluster = _cluster()
    client = cluster.client("node0")
    other = cluster.client("node1")
    chunks = [bytes([i + 1]) * n for i, (_, n) in enumerate(STRADDLING)]
    newer = [bytes([i + 101]) * n for i, (_, n) in enumerate(STRADDLING)]
    wide = _widened(STRADDLING)
    #: Remote reads stay clear of range 2, whose buffered bytes may or
    #: may not have been flushed by then.
    remote = [*wide[:2], (600 * KB + 100, 5700)]
    got = {}

    def body():
        handle = yield from client.open("/list")
        yield from other.writev(handle, STRADDLING, chunks, sync=True)
        yield from client.writev(handle, STRADDLING[1:3], newer[1:3])
        got["local"] = yield from client.readv(handle, wide, want_data=True)
        got["size_only"] = yield from client.readv(handle, wide)
        yield from client.writev(handle, STRADDLING[:2], chunks[:2], sync=True)
        got["remote"] = yield from other.readv(handle, remote, want_data=True)

    _run(cluster, body)
    local = _image([(STRADDLING, chunks), (STRADDLING[1:3], newer[1:3])])
    assert got["local"] == [bytes(local[o : o + n]) for o, n in wide]
    assert got["size_only"] is None
    synced = _image([(STRADDLING, chunks)])
    assert got["remote"] == [bytes(synced[o : o + n]) for o, n in remote]
    assert cluster.metrics.counters["cache.partial_hits"] >= 4
    assert _observed(cluster) == GOLDEN_CACHED["list_splice"]


def _mixed_body(cluster: Cluster, got: dict, span: int = 300 * KB):
    """Two nodes share one file through their caches, with real bytes:
    the reader caches a slice in the middle of the span before it reads
    the span, so that read's miss run has cached blocks inside it."""
    writer = cluster.client("node0")
    reader = cluster.client("node1")
    first = bytes(range(256)) * (span // 256)
    second = bytes(reversed(range(256))) * (span // 256)
    third = bytes(k * 7 % 256 for k in range(span // 2))

    def body():
        handle = yield from writer.open("/mixed")
        yield from writer.sync_write(handle, 1000, span, first)
        yield from reader.read(handle, 1000 + 100 * KB, 8 * KB, want_data=True)
        got["cold"] = yield from reader.read(handle, 1000, span, want_data=True)
        yield from writer.write(handle, 1000, span, second)
        yield from writer.sync_write(handle, 1000 + 50 * KB, len(third), third)
        got["warm"] = yield from reader.read(handle, 1000, span, want_data=True)

    expected = bytearray(second)
    expected[50 * KB : 50 * KB + len(third)] = third
    return body, first, bytes(expected)


def test_cached_path_on_one_iod_is_pinned():
    cluster = _cluster(iod_nodes=1)
    got = {}
    body, cold, warm = _mixed_body(cluster, got)
    _run(cluster, body)
    assert (got["cold"], got["warm"][50 * KB : 200 * KB]) == (
        cold, warm[50 * KB : 200 * KB]
    )
    assert cluster.metrics.counters["cache.split_requests"] > 0
    assert _observed(cluster) == GOLDEN_CACHED["one_iod"]


def test_cached_sequential_reads_with_readahead_are_pinned():
    cluster = _cluster(cache=CacheConfig(readahead=True))
    client = cluster.client("node0")
    data = bytes(range(256)) * (512 * KB // 256)
    got = []

    def body():
        handle = yield from client.open("/stream")
        yield from client.sync_write(handle, 0, len(data), data)
        reader = cluster.client("node1")
        for k in range(16):
            part = yield from reader.read(
                handle, k * 32 * KB, 32 * KB, want_data=True
            )
            got.append(part)

    _run(cluster, body)
    assert b"".join(got) == data
    assert cluster.metrics.counters["prefetch.issued"] > 0
    assert _observed(cluster) == GOLDEN_CACHED["readahead"]


def test_cached_reads_without_splitting_on_cached_blocks_are_pinned():
    """With ``split_on_cached_block`` off a miss run around cached
    blocks fetches the whole hull."""
    cluster = _cluster(cache=CacheConfig(split_on_cached_block=False))
    got = {}
    body, cold, warm = _mixed_body(cluster, got)
    _run(cluster, body)
    assert (got["cold"], got["warm"][50 * KB : 200 * KB]) == (
        cold, warm[50 * KB : 200 * KB]
    )
    assert cluster.metrics.counters["cache.split_requests"] == 0
    assert _observed(cluster) == GOLDEN_CACHED["no_split"]


def test_metadata_calls_over_two_shards_are_pinned():
    cluster = _cluster(mgr_shards=2)
    client = cluster.client("node2")
    got = {}

    def body():
        for k in range(4):
            yield from client.open(f"/meta/{k}")
        got["stat"] = yield from client.stat("/meta/1")
        got["missing"] = yield from client.stat("/meta/none")
        got["unlinked"] = yield from client.unlink("/meta/2")
        got["again"] = yield from client.unlink("/meta/2")
        got["paths"] = yield from client.listdir()

    _run(cluster, body)
    assert got["stat"] is not None and got["missing"] is None
    assert (got["unlinked"], got["again"]) == (True, False)
    assert got["paths"] == ["/meta/0", "/meta/1", "/meta/3"]
    assert _observed(cluster) == GOLDEN_CACHED["metadata"]


def test_cached_read_over_twelve_iods_is_pinned():
    """A 1 MB cached read whose segments each span iods on either side
    of ``node10`` in name order."""
    cluster = _cluster(iod_nodes=12)
    writer = cluster.client("node1", use_cache=False)
    client = cluster.client("node0")
    data = bytes(range(251)) * (MB // 251) + bytes(MB % 251)
    got = {}

    def body():
        handle = yield from writer.open("/wide")
        yield from writer.write(handle, 4 * KB, MB, data)
        got["data"] = yield from client.read(handle, 4 * KB, MB, want_data=True)

    _run(cluster, body)
    assert got["data"] == data
    assert _observed(cluster) == GOLDEN_CACHED["twelve_iods"]
