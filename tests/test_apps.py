"""Tests for the application benchmark suite."""

import pytest

from repro.workload.apps import (
    ArchiveMaintainer,
    AssociationMiningScan,
    BaseApp,
    OutOfCoreMatrixMultiply,
    VideoFrameExtractor,
    analysis_cycle_mix,
    run_app_mix,
)
from repro.workload import TraceRecorder
from tests.conftest import make_cluster


def test_base_app_run_is_abstract():
    cluster = make_cluster()
    app = BaseApp(cluster, "node0")
    with pytest.raises(NotImplementedError):
        next(iter(app.run()))


def test_ooc_matmul_completes_and_counts_requests():
    cluster = make_cluster()
    app = OutOfCoreMatrixMultiply(cluster, "node0", tiles=3)
    (result,) = run_app_mix(cluster, [app])
    # per row panel: 1 A read + tiles B reads + 1 C write
    assert result.requests == 3 * (1 + 3 + 1)
    assert result.elapsed_s > 0


def test_ooc_matmul_benefits_from_cache():
    """B's panels are re-read: caching must beat no caching."""

    def elapsed(caching):
        cluster = make_cluster(compute_nodes=1, iod_nodes=2, caching=caching)
        app = OutOfCoreMatrixMultiply(cluster, "node0", tiles=3)
        return run_app_mix(cluster, [app])[0].elapsed_s

    assert elapsed(True) < elapsed(False)


def test_mining_scan_multi_pass_locality():
    """Passes 2..k re-read pass 1's data: big caching win when the
    dataset fits the cache."""

    def elapsed(caching):
        cluster = make_cluster(compute_nodes=1, iod_nodes=2, caching=caching)
        app = AssociationMiningScan(
            cluster, "node0", dataset_bytes=512 * 1024, passes=5
        )
        return run_app_mix(cluster, [app])[0].elapsed_s

    assert elapsed(True) < elapsed(False) * 0.8


def test_video_extractor_stride_coverage():
    cluster = make_cluster()
    app = VideoFrameExtractor(
        cluster, "node0", frames=6, stride=2, offset_frames=1
    )
    (result,) = run_app_mix(cluster, [app])
    assert result.requests == 6


def test_two_video_extractors_interleave_disjointly():
    """Stride-2 extractors with offsets 0/1 touch disjoint frames."""
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    recorder = TraceRecorder(cluster)
    recorder.tap()
    apps = []
    for i, node in enumerate(("node0", "node1")):
        app = VideoFrameExtractor(
            cluster, node, frames=6, stride=2, offset_frames=i,
            name=f"vx-{i}",
        )
        apps.append(app)
    run_app_mix(cluster, apps)
    touched = {}
    for event in recorder.trace():
        assert event.path == "/video/stream" and event.op == "read"
        touched.setdefault(event.process, []).extend(event.ranges)
    first, second = touched.values()
    assert not [
        (a, b)
        for a, a_bytes in first
        for b, b_bytes in second
        if a < b + b_bytes and b < a + a_bytes
    ]


def test_archive_maintainer_producer_consumer_on_itself():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    app = ArchiveMaintainer(cluster, "node0", batches=8)
    (result,) = run_app_mix(cluster, [app])
    # 8 writes + 2 index reads (every 4 batches)
    assert result.requests == 10


def test_shared_miners_read_the_same_file():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    recorder = TraceRecorder(cluster)
    recorder.tap()
    apps = []
    for i, node in enumerate(("node0", "node1")):
        app = AssociationMiningScan(
            cluster, node, dataset_bytes=128 * 1024, passes=1,
            name=f"miner-{i}",
        )
        apps.append(app)
    run_app_mix(cluster, apps)
    events = [
        e for e in recorder.trace() if e.path == "/mining/transactions"
    ]
    assert {e.op for e in events} == {"read"}
    assert len({e.process for e in events}) == 2


def test_analysis_cycle_mix_builds_and_runs():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    apps = analysis_cycle_mix(cluster, ["node0", "node1"])
    assert len(apps) == 6
    results = run_app_mix(cluster, apps)
    assert len(results) == 6
    assert all(r.elapsed_s >= 0 and r.requests > 0 for r in results)
    names = {r.name for r in results}
    assert {"archiver", "miner", "miner-2", "solver"} <= names


def test_app_mix_caching_beats_no_caching():
    """The whole Figure-1-style mix benefits from the shared cache."""

    def total(caching):
        cluster = make_cluster(compute_nodes=2, iod_nodes=2, caching=caching)
        apps = analysis_cycle_mix(cluster, ["node0", "node1"])
        results = run_app_mix(cluster, apps)
        return max(r.elapsed_s for r in results)

    assert total(True) < total(False)


def test_app_results_recorded_in_metrics():
    cluster = make_cluster()
    app = VideoFrameExtractor(cluster, "node0", frames=3, name="vid")
    run_app_mix(cluster, [app])
    assert cluster.metrics.series["app.vid.elapsed"]
