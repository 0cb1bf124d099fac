"""Tests for the two-phase collective I/O layer."""

import pytest

from repro.pvfs.collective import (
    CollectiveGroup,
    InterleavedAccess,
    run_interleaved_read,
)
from tests.conftest import make_cluster, run_app


def test_interleaved_access_geometry():
    a = InterleavedAccess(rank=1, n_ranks=4, item_bytes=1024, items=3, base=100)
    assert a.offsets() == [100 + 1024, 100 + 4096 + 1024, 100 + 8192 + 1024]
    assert a.total_bytes == 3072
    assert a.aggregate_bytes == 12288


def test_group_requires_ranks():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        CollectiveGroup(cluster, [])


def test_ranks_cover_aggregate_disjointly():
    accesses = [
        InterleavedAccess(rank=r, n_ranks=4, item_bytes=512, items=4)
        for r in range(4)
    ]
    covered = set()
    for a in accesses:
        for off in a.offsets():
            region = set(range(off, off + a.item_bytes))
            assert not (covered & region)
            covered |= region
    assert covered == set(range(accesses[0].aggregate_bytes))


def test_independent_read_completes():
    cluster = make_cluster(caching=False)
    t = run_interleaved_read(
        cluster, cluster.compute_nodes, item_bytes=4096,
        items_per_rank=8, collective=False,
    )
    assert t > 0
    assert cluster.metrics.count("collective.independent_reads") == 2


def test_collective_read_completes_with_shuffle():
    cluster = make_cluster(caching=False)
    t = run_interleaved_read(
        cluster, cluster.compute_nodes, item_bytes=4096,
        items_per_rank=8, collective=True,
    )
    assert t > 0
    assert cluster.metrics.count("collective.reads") == 2


def test_collective_beats_independent_for_small_items_no_cache():
    """Tiny interleaved items: per-request overhead dominates the
    independent version; the collective's two large reads + shuffle
    win.  (The classic two-phase I/O result.)"""

    def run(collective):
        cluster = make_cluster(compute_nodes=4, iod_nodes=4, caching=False)
        return run_interleaved_read(
            cluster, cluster.compute_nodes, item_bytes=2048,
            items_per_rank=32, collective=collective,
        )

    assert run(True) < run(False)


def test_cache_narrows_the_collective_gap():
    """With adjacent ranks co-located, the kernel cache merges their
    sub-block items into shared 4 KB fetches: the independent version
    improves far more than the collective one — the interplay question
    the module exists to answer."""

    def run(collective, caching):
        cluster = make_cluster(compute_nodes=2, iod_nodes=2, caching=caching)
        # ranks 0,1 on node0 and 2,3 on node1: neighbouring ranks'
        # 2 KB items share 4 KB cache blocks
        ranks = ["node0", "node0", "node1", "node1"]
        return run_interleaved_read(
            cluster, ranks, item_bytes=2048,
            items_per_rank=32, collective=collective,
        )

    gap_nocache = run(False, False) / run(True, False)
    gap_cache = run(False, True) / run(True, True)
    assert gap_cache < gap_nocache


def test_collective_write_completes():
    cluster = make_cluster(caching=False)
    t = run_interleaved_read(
        cluster, cluster.compute_nodes, item_bytes=4096,
        items_per_rank=8, collective=True, mode="write",
    )
    assert t > 0
    assert cluster.metrics.count("collective.writes") == 2


def test_independent_write_completes():
    cluster = make_cluster(caching=False)
    t = run_interleaved_read(
        cluster, cluster.compute_nodes, item_bytes=4096,
        items_per_rank=8, collective=False, mode="write",
    )
    assert t > 0
    assert cluster.metrics.count("collective.independent_writes") == 2


def test_collective_write_beats_independent_without_cache():
    def run(collective):
        cluster = make_cluster(compute_nodes=4, iod_nodes=4, caching=False)
        return run_interleaved_read(
            cluster, cluster.compute_nodes, item_bytes=2048,
            items_per_rank=32, collective=collective, mode="write",
        )

    assert run(True) < run(False)


def test_invalid_mode_rejected():
    cluster = make_cluster()
    with pytest.raises(ValueError, match="read/write"):
        run_interleaved_read(
            cluster, cluster.compute_nodes, item_bytes=4096,
            items_per_rank=1, collective=True, mode="append",
        )


def test_single_rank_collective_degenerates():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    t = run_interleaved_read(
        cluster, ["node0"], item_bytes=4096, items_per_rank=4,
        collective=True,
    )
    assert t > 0  # no peers to shuffle with; still completes


def test_remote_sync_write_reaches_a_collective_readers_cache():
    """Collective I/O on a caching cluster keeps the coherence
    contract: each rank's file domain is read through its node's cache,
    so a remote ``sync_write`` into rank 1's domain makes rank 1's next
    collective read fetch that block from the iod again."""
    cluster = make_cluster(compute_nodes=3, iod_nodes=2)
    env = cluster.env
    ranks = ["node0", "node1"]
    writer = cluster.client("node2")
    accesses = [
        InterleavedAccess(rank=r, n_ranks=2, item_bytes=4096, items=8)
        for r in range(2)
    ]

    def collective_read(handle):
        group = CollectiveGroup(cluster, ranks)
        yield env.all_of(group.spawn_all(handle, accesses, collective=True))

    def app(env):
        f = yield from writer.open("/collective/coherent")
        yield from collective_read(f)  # fills both ranks' caches
        reads = cluster.metrics.count("iod.reads")
        yield from collective_read(f)
        assert cluster.metrics.count("iod.reads") == reads  # all hits
        # Rank 1's file domain is the second half: blocks 8-15.
        yield from writer.sync_write(f, 12 * 4096, 4096, b"w" * 4096)
        reads = cluster.metrics.count("iod.reads")
        yield from collective_read(f)
        assert cluster.metrics.count("iod.reads") == reads + 1

    run_app(cluster, app(cluster.env))
