"""Tests for JSON config round-tripping."""

import io

import pytest

from repro.cluster.config import CacheConfig, ClusterConfig, CostModel
from repro.cluster.configio import (
    config_from_dict,
    dumps_config,
    load_config,
    loads_config,
)


def test_minimal_config():
    config = loads_config("{}")
    assert config.compute_nodes == ClusterConfig().compute_nodes
    assert config.cache.size_bytes == CacheConfig().size_bytes


def test_full_roundtrip():
    original = ClusterConfig(
        compute_nodes=6,
        iod_nodes=3,
        separate_iod_nodes=True,
        caching=True,
        cache=CacheConfig(size_bytes=2 * 1024 * 1024, replacement="exact-lru"),
        costs=CostModel(fabric="hub", bandwidth_bps=1e9),
    )
    text = dumps_config(original)
    back = loads_config(text)
    assert back == original


def test_nested_sections():
    config = loads_config(
        '{"compute_nodes": 2, "iod_nodes": 2,'
        ' "cache": {"flush_period_s": 0.01, "global_cache": true},'
        ' "costs": {"fabric": "hub"}}'
    )
    assert config.cache.flush_period_s == 0.01
    assert config.cache.global_cache is True
    assert config.costs.fabric == "hub"


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown cluster keys"):
        loads_config('{"chache": {}}')
    with pytest.raises(ValueError, match="unknown cache keys"):
        loads_config('{"cache": {"sizee": 1}}')
    with pytest.raises(ValueError, match="unknown costs keys"):
        loads_config('{"costs": {"fabrik": "hub"}}')


def test_removed_macro_knob_is_rejected():
    """The macro read path is gone (DESIGN.md appendix A.2): asking for
    it must fail, not run the event-level path under a config that says
    otherwise — e.g. a config dumped by an older revision."""
    with pytest.raises(TypeError, match="engine_macro"):
        ClusterConfig(engine_macro=True)  # type: ignore[call-arg]
    with pytest.raises(
        ValueError, match=r"unknown cluster keys: \['engine_macro'\]"
    ):
        loads_config('{"engine_macro": true}')


def test_removed_net_model_knob_is_rejected():
    """There is one network model (DESIGN.md appendix A.3): a config
    that names one must fail, not run ``frames`` while saying ``fluid``."""
    with pytest.raises(TypeError, match="net_model"):
        ClusterConfig(net_model="fluid")  # type: ignore[call-arg]
    with pytest.raises(
        ValueError, match=r"unknown cluster keys: \['net_model'\]"
    ):
        loads_config('{"net_model": "fluid"}')


def test_removed_disk_model_knob_is_rejected():
    """There is one disk model (DESIGN.md appendix A.5): a config that
    names one must fail, not run ``mech`` while saying ``queued``."""
    with pytest.raises(TypeError, match="disk_model"):
        ClusterConfig(disk_model="queued")  # type: ignore[call-arg]
    with pytest.raises(
        ValueError, match=r"unknown cluster keys: \['disk_model'\]"
    ):
        loads_config('{"disk_model": "queued"}')


def test_validation_still_applies():
    with pytest.raises(ValueError):
        loads_config('{"compute_nodes": 0}')
    with pytest.raises(ValueError):
        loads_config('{"costs": {"fabric": "token-ring"}}')


def test_non_object_rejected():
    with pytest.raises(ValueError, match="must be an object"):
        config_from_dict([1, 2, 3])  # type: ignore[arg-type]


def test_load_from_file_object():
    config = load_config(io.StringIO('{"compute_nodes": 3, "iod_nodes": 3}'))
    assert config.compute_nodes == 3


def test_config_builds_working_cluster():
    from repro.cluster.cluster import Cluster

    config = loads_config(
        '{"compute_nodes": 2, "iod_nodes": 2, "caching": true}'
    )
    cluster = Cluster(config)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/cfg")
        yield from client.write(f, 0, 4096, b"c" * 4096)
        data = yield from client.read(f, 0, 4096, want_data=True)
        assert data == b"c" * 4096

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)
