"""Schedule pins for libpvfs's raw (no-cache) data path.

A contiguous ``read``/``write``/``sync_write`` is the one-range list
request of PVFS list I/O, so it and ``readv``/``writev`` share one raw
body per direction.  The read digests were recorded before the
contiguous calls were folded into the list bodies; the folded code
reproduces every one of them, event for event.  The write digests (and
the list run's, which writes) were re-recorded when the iod's
writeback became dirty pages written in runs: a write's schedule
includes its iod's writeback, a read's does not.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.workload import MicroBenchmark, MicroBenchParams

KB = 1024
MB = 2**20

#: ``(mode, request size) -> (trace hash, events processed)`` of a
#: caching-off micro-benchmark at p = 3 with real bytes and warm-up.
GOLDEN_RAW_MICRO = {
    ("read", 4 * KB): (
        "b1186446d9c9c25e93ef877197daded0",
        1462,
    ),
    ("read", MB): (
        "ec49c220731c1a96c1a7d6c2e33d6660",
        2893,
    ),
    ("write", 4 * KB): (
        "538cf7e0f01eeeb951d776b1abe4ec41",
        925,
    ),
    ("write", MB): (
        "24d9ee5dda5f94fac654635aaf2c0147",
        2251,
    ),
    ("sync_write", 4 * KB): (
        "538cf7e0f01eeeb951d776b1abe4ec41",
        925,
    ),
    ("sync_write", MB): (
        "97d28ca001128d5adfdb4fbd6b105488",
        2251,
    ),
}

#: The list run below: ``(trace hash, events processed)``.
GOLDEN_RAW_LIST = ("9c6519c71f69bab83fa267602a2d9904", 313)


def _raw_cluster() -> Cluster:
    cluster = Cluster(
        ClusterConfig(compute_nodes=3, iod_nodes=3, caching=False)
    )
    cluster.env.enable_trace_hash()
    return cluster


@pytest.mark.parametrize("mode, size", sorted(GOLDEN_RAW_MICRO))
def test_raw_micro_benchmark_schedule_is_pinned(mode, size):
    cluster = _raw_cluster()
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
    observed = (env.trace_hash(), env.sched_stats()["events_processed"])
    assert observed == GOLDEN_RAW_MICRO[(mode, size)]


#: Ranges that straddle the 64 KB stripe boundaries (three iods), one
#: that spans a whole stripe round, and two that abut.
STRADDLING = [
    (64 * KB - 1000, 3000),
    (3 * 64 * KB - 512, 200 * KB),
    (600 * KB, 100),
    (600 * KB + 100, 5000),
]


def test_raw_list_io_straddling_stripes_is_pinned():
    cluster = _raw_cluster()
    env = cluster.env
    client = cluster.client("node0")
    other = cluster.client("node1")
    chunks = [bytes([i + 1]) * n for i, (_, n) in enumerate(STRADDLING)]
    newer = [bytes([i + 101]) * n for i, (_, n) in enumerate(STRADDLING)]
    got = {}

    def body():
        handle = yield from client.open("/list")
        yield from client.writev(handle, STRADDLING, chunks)
        yield from other.writev(handle, STRADDLING[1:3], newer[1:3], sync=True)
        got["parts"] = yield from client.readv(handle, STRADDLING, want_data=True)
        got["size_only"] = yield from client.readv(handle, STRADDLING)

    env.run(until=env.process(body()))
    assert got["parts"] == [chunks[0], newer[1], newer[2], chunks[3]]
    assert got["size_only"] is None
    observed = (env.trace_hash(), env.sched_stats()["events_processed"])
    assert observed == GOLDEN_RAW_LIST
