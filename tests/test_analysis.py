"""Tests for reuse-distance (Mattson) analysis, including a
cross-check against the simulated cache."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.analysis import (
    INFINITE,
    analyze_trace,
    events_to_blocks,
    hit_ratio_curve,
    reuse_distances,
    working_set_size,
)
from repro.workload.trace import TraceEvent


def _brute_force_distances(accesses):
    """O(n^2) reference implementation."""
    out = []
    for i, block in enumerate(accesses):
        prev = None
        for j in range(i - 1, -1, -1):
            if accesses[j] == block:
                prev = j
                break
        if prev is None:
            out.append(INFINITE)
        else:
            out.append(float(len(set(accesses[prev + 1 : i]))))
    return out


def test_distances_basic():
    assert reuse_distances(["a", "a"]) == [INFINITE, 0.0]
    assert reuse_distances(["a", "b", "a"]) == [INFINITE, INFINITE, 1.0]
    assert reuse_distances([]) == []


def test_distances_classic_example():
    trace = list("abcba")
    # c->b: distance 1 (c between); b->a: distance 2 (c, b between)
    assert reuse_distances(trace) == [INFINITE, INFINITE, INFINITE, 1.0, 2.0]


@settings(max_examples=150)
@given(trace=st.lists(st.integers(0, 12), max_size=60))
def test_property_matches_brute_force(trace):
    assert reuse_distances(trace) == _brute_force_distances(trace)


def test_hit_ratio_curve():
    distances = [INFINITE, 0.0, 1.0, 2.0]
    curve = hit_ratio_curve(distances, [1, 2, 3, 100])
    assert curve[1] == 0.25  # only d=0 hits
    assert curve[2] == 0.50
    assert curve[3] == 0.75
    assert curve[100] == 0.75  # compulsory miss never hits


def test_hit_ratio_curve_validation():
    with pytest.raises(ValueError):
        hit_ratio_curve([0.0], [0])
    assert hit_ratio_curve([], [4]) == {4: 0.0}


def test_hit_ratio_monotone_in_cache_size():
    distances = reuse_distances([i % 7 for i in range(100)])
    curve = hit_ratio_curve(distances, [1, 2, 4, 8, 16])
    values = [curve[s] for s in (1, 2, 4, 8, 16)]
    assert values == sorted(values)


def test_working_set_size():
    assert working_set_size(["a", "b", "a"]) == 2


def test_events_to_blocks_expansion():
    events = [
        TraceEvent(1.0, "p", "/f", "read", 0, 8192),
        TraceEvent(0.5, "p", "/g", "write", 4096, 100),
    ]
    blocks = events_to_blocks(events)
    # sorted by time: /g first
    assert blocks == [("/g", 1), ("/f", 0), ("/f", 1)]


def test_events_to_blocks_filters():
    events = [
        TraceEvent(0.0, "p", "/f", "write", 0, 4096),
        TraceEvent(1.0, "p", "/f", "read", 0, 0),  # zero bytes
    ]
    assert events_to_blocks(events, ops=("read",)) == []


def test_analyze_trace_summary():
    events = [
        TraceEvent(float(i), "p", "/f", "read", (i % 4) * 4096, 4096)
        for i in range(40)
    ]
    summary = analyze_trace(events, cache_sizes=[1, 4, 300])
    assert summary["accesses"] == 40
    assert summary["distinct_blocks"] == 4
    assert summary["compulsory_misses"] == 4
    assert summary["hit_ratio_by_cache_blocks"][4] == 0.9  # 36/40
    assert summary["hit_ratio_by_cache_blocks"][1] == 0.0


def test_prediction_matches_simulated_exact_lru_cache():
    """The whole point: the analytic curve predicts what the simulated
    exact-LRU cache actually does."""
    import numpy as np

    from repro.cluster.cluster import Cluster
    from repro.cluster.config import CacheConfig, ClusterConfig
    from repro.workload import TraceRecorder

    n_cache_blocks = 16
    config = ClusterConfig(
        compute_nodes=1,
        iod_nodes=1,
        caching=True,
        cache=CacheConfig(
            size_bytes=n_cache_blocks * 4096,
            replacement="exact-lru",
            # keep the harvester from evicting ahead of demand, which
            # would make the simulated cache effectively smaller
            low_watermark=0.01,
            high_watermark=0.05,
            readahead=False,
        ),
    )
    cluster = Cluster(config)
    recorder = TraceRecorder(cluster)
    recorder.tap()
    client = cluster.client("node0")
    rng = np.random.default_rng(5)

    def app(env):
        f = yield from client.open("/lru")
        for _ in range(300):
            block = int(rng.zipf(1.5)) % 40  # skewed reuse
            yield from client.read(f, block * 4096, 4096)

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)

    blocks = events_to_blocks(recorder.events)
    curve = hit_ratio_curve(reuse_distances(blocks), [n_cache_blocks])
    predicted = curve[n_cache_blocks]
    m = cluster.metrics
    simulated = m.count("cache.hits") / (
        m.count("cache.hits") + m.count("cache.misses")
    )
    # the simulated cache loses a little capacity to the harvester's
    # watermark slack; allow a few points of difference
    assert simulated == pytest.approx(predicted, abs=0.08)
