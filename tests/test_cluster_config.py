"""Tests for configuration validation and cluster assembly."""

import pytest

from repro.cluster.config import CacheConfig, ClusterConfig, CostModel
from tests.conftest import make_cluster, run_app


# -- CostModel -----------------------------------------------------------


def test_cost_model_defaults_respect_paper_bound():
    costs = CostModel()
    assert costs.cache_block_service_s < 400e-6


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(fabric="token-ring")
    with pytest.raises(ValueError):
        CostModel(bandwidth_bps=0)
    with pytest.raises(ValueError):
        CostModel(disk_bytes_per_s=-1)


# -- CacheConfig ---------------------------------------------------------


def test_cache_config_paper_defaults():
    cache = CacheConfig()
    assert cache.size_bytes == 1_200 * 1024  # 1.2 MB
    assert cache.block_size == 4096
    assert cache.n_blocks == 300


def test_cache_config_watermarks():
    cache = CacheConfig(low_watermark=0.1, high_watermark=0.25)
    assert cache.low_blocks == 30
    assert cache.high_blocks == 75
    with pytest.raises(ValueError):
        CacheConfig(low_watermark=0.5, high_watermark=0.25)
    with pytest.raises(ValueError):
        CacheConfig(low_watermark=-0.1)


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(block_size=0)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=100, block_size=4096)
    with pytest.raises(ValueError):
        CacheConfig(replacement="fifo")


def test_cache_config_segments():
    cache = CacheConfig()
    assert cache.effective_segment_blocks == 300 // 8
    assert CacheConfig(segment_blocks=10).effective_segment_blocks == 10
    with pytest.raises(ValueError):
        _ = CacheConfig(segment_blocks=0).effective_segment_blocks
    # tiny caches still get a sane floor
    tiny = CacheConfig(size_bytes=16 * 4096)
    assert tiny.effective_segment_blocks == 8


# -- ClusterConfig -------------------------------------------------------


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(compute_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(iod_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(stripe_size=0)
    with pytest.raises(ValueError):
        ClusterConfig(stripe_size=5000)  # not multiple of block size


def test_node_naming_colocated():
    config = ClusterConfig(compute_nodes=4, iod_nodes=4)
    assert config.compute_node_names() == ["node0", "node1", "node2", "node3"]
    assert config.iod_node_names() == ["node0", "node1", "node2", "node3"]


def test_node_naming_separate():
    config = ClusterConfig(compute_nodes=2, iod_nodes=3, separate_iod_nodes=True)
    assert config.compute_node_names() == ["node0", "node1"]
    assert config.iod_node_names() == ["node2", "node3", "node4"]


# -- Cluster assembly ----------------------------------------------------


def test_cluster_builds_colocated_nodes_once():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    assert set(cluster.nodes) == {"node0", "node1"}
    assert all(n.disk is not None for n in cluster.nodes.values())
    assert len(cluster.iods) == 2
    assert len(cluster.cache_modules) == 2


def test_cluster_separate_iod_nodes():
    cluster = make_cluster(
        compute_nodes=2, iod_nodes=2, separate_iod_nodes=True
    )
    assert set(cluster.nodes) == {"node0", "node1", "node2", "node3"}
    assert cluster.nodes["node0"].disk is None
    assert cluster.nodes["node2"].disk is not None
    assert "node0" in cluster.cache_modules
    assert "node2" not in cluster.cache_modules


def test_cluster_no_caching_has_no_modules():
    cluster = make_cluster(caching=False)
    assert cluster.cache_modules == {}
    assert cluster.nodes["node0"].cache_module is None


def test_cluster_hub_fabric_option():
    from repro.net import SharedHubFabric

    config = ClusterConfig(costs=CostModel(fabric="hub"))
    from repro.cluster.cluster import Cluster

    cluster = Cluster(config)
    assert isinstance(cluster.network.fabric, SharedHubFabric)


def test_cluster_node_repr_and_accessors():
    cluster = make_cluster()
    node = cluster.node("node0")
    assert "node0" in repr(node)
    assert cluster.compute_nodes == ["node0", "node1"]
    assert cluster.iod_nodes == ["node0", "node1"]


def test_node_compute_validation():
    cluster = make_cluster()
    node = cluster.node("node0")

    def bad(env):
        yield node.compute(-1)

    proc = cluster.env.process(bad(cluster.env))
    # bounded run: cluster daemons (flusher) reschedule forever
    cluster.env.run(until=0.001)
    assert proc.triggered and not proc.ok


def test_node_compute_zero_is_free():
    cluster = make_cluster()
    node = cluster.node("node0")

    def app(env):
        yield node.compute(0)
        return env.now

    assert run_app(cluster, app(cluster.env)) == 0.0


def test_drain_caches_helper():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 8192, None)
        yield from cluster.drain_caches()
        assert all(
            m.manager.n_dirty == 0 for m in cluster.cache_modules.values()
        )

    run_app(cluster, app(cluster.env))


def test_the_environment_configures_no_cluster(tmp_path, monkeypatch):
    """``REPRO_TRACE`` and ``REPRO_MGR_SHARDS`` are read by nothing
    (DESIGN.md appendix A.12): with both set, a fig4 point still runs
    its synthetic benchmark on the paper's single mgr, schedule and
    all."""
    from repro.workload.replay import (
        _fig4_point,
        fig4_point_trace_hash,
        record_microbench_trace,
    )
    from repro.workload.runner import run_instances

    unset = fig4_point_trace_hash()
    other = tmp_path / "other.jsonl"
    other.write_text(record_microbench_trace(iterations=2))
    monkeypatch.setenv("REPRO_TRACE", str(other))
    monkeypatch.setenv("REPRO_MGR_SHARDS", "3")
    outcome = run_instances(*_fig4_point(4096, "read", 2, 8, 1234))
    assert outcome.cluster.mgr_shards == 1
    # Two ranks of eight synthetic reads, not the four-read recording.
    assert [len(i.per_rank) for i in outcome.instances] == [2]
    assert outcome.counter("client.reads") == 2 * 8
    assert fig4_point_trace_hash() == unset
