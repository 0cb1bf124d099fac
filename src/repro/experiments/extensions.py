"""Experiments for the extension features (beyond the paper's figures).

* :func:`run_coherence_sweep` — mean write latency as the fraction of
  coherent (``sync_write``) writes grows from 0 to 1, quantifying the
  paper's implicit trade-off between the non-coherent default and the
  consistency-preserving path.
* :func:`run_readahead_experiment` — sequential-scan time vs per-chunk
  compute (think time): prefetching converts compute time into overlap.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.workload import MicroBenchParams, run_instances


def _coherence_point(
    fraction: float, d: int, p: int, iterations: int
) -> tuple[float, float]:
    """One coherence-sweep point: (blended write latency, invalidations)."""
    config = ClusterConfig(compute_nodes=p, iod_nodes=p, caching=True)
    writer = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=d,
        iterations=iterations,
        mode="write",
        sync_fraction=fraction,
        sharing=1.0,
        instance=0,
        partition_bytes=2 * 2**20,
    )
    # The reader's ranks run on the REVERSED node order, so rank k
    # reads partition k from a different node than the writer's
    # rank k writes it — the cross-node copies that sync_write
    # must invalidate.
    reader = MicroBenchParams(
        nodes=list(reversed(config.compute_node_names())),
        request_size=d,
        iterations=iterations,
        mode="read",
        sharing=1.0,
        instance=1,
        partition_bytes=2 * 2**20,
    )
    out = run_instances(config, [writer, reader])
    latency = out.cluster.metrics.mean("client.write_latency")
    sync_latency = out.cluster.metrics.mean("client.sync_write_latency")
    # blend: the writer's overall per-request cost
    n_sync = out.counter("client.sync_writes")
    n_plain = out.counter("client.writes")
    total = n_sync + n_plain
    blended = 0.0
    if total:
        blended = (
            (latency if latency == latency else 0.0) * n_plain
            + (sync_latency if sync_latency == sync_latency else 0.0)
            * n_sync
        ) / total
    return blended, float(out.counter("cache.invalidations_received"))


def run_coherence_sweep(
    fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    d: int = 16384,
    p: int = 2,
    iterations: int = 32,
) -> ExperimentResult:
    """Write latency vs fraction of coherent writes, with a second
    instance caching the written file (so invalidations actually fire)."""
    result = ExperimentResult(
        experiment_id="ext-coherence",
        title=f"Write latency vs sync_write fraction (d={d}, p={p}, "
        "reader instance caching the shared file)",
        x_label="sync_write fraction",
        y_label="mean write latency (seconds)",
    )
    series = result.new_series("write latency")
    inval_series = result.new_series("invalidations (count)")
    points = [(fraction, d, p, iterations) for fraction in fractions]
    for fraction, (blended, invalidations) in zip(
        fractions, sweep(points, _coherence_point)
    ):
        series.add(fraction, blended)
        inval_series.add(fraction, invalidations)
    result.notes = "coherence costs a round trip per covered write"
    return result


def _straggler_point(caching: bool, slowdown: float) -> float:
    """Steady-state re-scan time with one degraded iod disk."""
    working_set = 768 * 1024
    chunk = 64 * 1024
    config = ClusterConfig(
        compute_nodes=1,
        iod_nodes=2,
        caching=caching,
        pagecache_blocks=64,  # 256 KB of server memory per iod
    )
    cluster = Cluster(config)
    disk = cluster.iods[0].node.disk
    assert disk is not None
    disk.transfer_bytes_per_s /= slowdown
    disk.avg_seek_s *= slowdown
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/straggler/ws")
        # pass 1: populate (unmeasured)
        for pos in range(0, working_set, chunk):
            yield from client.read(f, pos, chunk)
        t0 = env.now
        for _pass in range(3):  # passes 2-4: the steady state
            for pos in range(0, working_set, chunk):
                yield from client.read(f, pos, chunk)
        return env.now - t0

    proc = cluster.env.process(app(cluster.env))
    return cluster.env.run(until=proc)


def run_straggler_experiment(
    slowdowns: tuple[float, ...] = (1.0, 4.0, 16.0),
    d: int = 65536,
    iterations: int = 24,
) -> ExperimentResult:
    """A degraded iod disk (straggler): how much does the client cache
    mask it?

    One iod's disk runs ``slowdown``x slower than the others.  Without
    caching every cold read striped onto it stalls; with caching (and
    locality) most requests never reach it.
    """
    del d, iterations  # workload shaped by the working set instead
    result = ExperimentResult(
        experiment_id="ext-straggler",
        title="Repeated scans of a 768 KB working set with one "
        "degraded iod disk (fits the 1.2 MB client cache, exceeds "
        "the 256 KB iod page cache)",
        x_label="straggler disk slowdown (x)",
        y_label="time for scan passes 2-4 (seconds)",
    )
    plain_series = result.new_series("no caching")
    cached_series = result.new_series("caching")

    points = []
    for slowdown in slowdowns:
        points.append((False, slowdown))
        points.append((True, slowdown))
    values = iter(sweep(points, _straggler_point))
    for slowdown in slowdowns:
        plain_series.add(slowdown, next(values))
        cached_series.add(slowdown, next(values))
    result.notes = (
        "re-scans hit the slow disk without the client cache; with it "
        "they never leave the node"
    )
    return result


def _readahead_point(
    readahead: bool, think_s: float, chunks: int, chunk_bytes: int
) -> float:
    """Sequential-scan time for one (readahead, think time) point."""
    config = ClusterConfig(
        compute_nodes=1,
        iod_nodes=1,
        caching=True,
        cache=CacheConfig(readahead=readahead),
    )
    cluster = Cluster(config)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/scan")
        t0 = env.now
        for i in range(chunks):
            yield from client.read(f, i * chunk_bytes, chunk_bytes)
            if think_s:
                yield cluster.node("node0").compute(think_s)
        return env.now - t0

    proc = cluster.env.process(app(cluster.env))
    return cluster.env.run(until=proc)


def run_readahead_experiment(
    think_times_s: tuple[float, ...] = (0.0, 1e-3, 2e-3, 4e-3),
    chunks: int = 32,
    chunk_bytes: int = 16384,
) -> ExperimentResult:
    """Sequential scan with per-chunk compute, readahead on/off."""
    result = ExperimentResult(
        experiment_id="ext-readahead",
        title=f"Sequential scan of {chunks} x {chunk_bytes // 1024} KB "
        "with per-chunk compute",
        x_label="compute per chunk (seconds)",
        y_label="scan time (seconds)",
    )
    plain_series = result.new_series("no readahead")
    ra_series = result.new_series("readahead")

    points = []
    for think_s in think_times_s:
        points.append((False, think_s, chunks, chunk_bytes))
        points.append((True, think_s, chunks, chunk_bytes))
    values = iter(sweep(points, _readahead_point))
    for think_s in think_times_s:
        plain_series.add(think_s, next(values))
        ra_series.add(think_s, next(values))
    result.notes = "prefetch overlaps the next chunk's fetch with compute"
    return result
