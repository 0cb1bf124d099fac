"""Tests for the extension experiments and the sync_fraction workload knob."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.experiments.extensions import (
    run_coherence_sweep,
    run_readahead_experiment,
)
from repro.workload import MicroBenchParams, run_instances


# -- sync_fraction workload knob -----------------------------------------


def test_sync_fraction_validation():
    with pytest.raises(ValueError):
        MicroBenchParams(
            nodes=["n"], request_size=4096, iterations=1, sync_fraction=1.5
        )


def test_sync_fraction_mixes_write_kinds():
    config = ClusterConfig(compute_nodes=1, iod_nodes=1, caching=True)
    params = MicroBenchParams(
        nodes=["node0"],
        request_size=8192,
        iterations=40,
        mode="write",
        sync_fraction=0.5,
        partition_bytes=1 << 20,
    )
    out = run_instances(config, [params])
    n_sync = out.counter("client.sync_writes")
    n_plain = out.counter("client.writes")
    assert n_sync + n_plain == 40
    assert 8 <= n_sync <= 32  # ~half, with RNG slack


def test_sync_fraction_zero_means_all_buffered():
    config = ClusterConfig(compute_nodes=1, iod_nodes=1, caching=True)
    params = MicroBenchParams(
        nodes=["node0"], request_size=8192, iterations=10, mode="write",
        partition_bytes=1 << 20,
    )
    out = run_instances(config, [params])
    assert out.counter("client.sync_writes") == 0


# -- extension experiments --------------------------------------------------


def test_coherence_sweep_monotone_cost():
    result = run_coherence_sweep(fractions=(0.0, 1.0), iterations=16)
    latency = result.get("write latency")
    assert latency.y_at(0.0) < latency.y_at(1.0)
    invals = result.get("invalidations (count)")
    assert invals.y_at(1.0) > 0
    assert invals.y_at(0.0) == 0


def test_straggler_experiment_masking():
    from repro.experiments.extensions import run_straggler_experiment

    result = run_straggler_experiment(slowdowns=(1.0, 8.0))
    plain = result.get("no caching")
    cached = result.get("caching")
    # baseline degrades with the disk; the cached version does not
    assert plain.y_at(8.0) > plain.y_at(1.0) * 1.5
    assert cached.y_at(8.0) <= cached.y_at(1.0) * 1.05
    assert cached.y_at(8.0) < plain.y_at(8.0) / 3


def test_readahead_experiment_overlap_with_compute():
    result = run_readahead_experiment(think_times_s=(0.0, 2e-3))
    plain = result.get("no readahead")
    ra = result.get("readahead")
    # with compute between chunks, prefetch overlaps and wins
    assert ra.y_at(2e-3) < plain.y_at(2e-3)
