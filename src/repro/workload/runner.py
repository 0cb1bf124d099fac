"""Run one cluster configuration with one or more benchmark instances.

This is the choke point every experiment driver goes through.  With
``record=True`` it taps the run via the instrumentation bus and
returns the recorded :class:`~repro.workload.trace.Trace` on
``RunOutcome.trace``, so any driver's workload can be serialized and
replayed on another cluster by
:class:`~repro.workload.replay.TraceReplayer`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.workload.microbench import MicroBenchmark, MicroBenchParams

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workload.trace import Trace


@dataclasses.dataclass
class InstanceResult:
    instance: int
    makespan: float
    per_rank: dict[int, float]


@dataclasses.dataclass
class RunOutcome:
    """Everything an experiment needs from one simulated run."""

    instances: list[InstanceResult]
    #: Simulated wall-clock from spawn to last rank's completion.
    total_time: float
    mean_read_latency: float
    mean_write_latency: float
    counters: dict[str, int]
    #: The live cluster the run executed on.
    cluster: Cluster
    #: The run's recorded trace (``record=True`` only).
    trace: "Trace | None" = None

    @property
    def makespan(self) -> float:
        """Slowest instance (the figure 6-8 y-axis)."""
        return max(i.makespan for i in self.instances)

    def counter(self, name: str) -> int:
        """A counter's final value (0 if absent)."""
        return self.counters.get(name, 0)

    @property
    def cache_hit_ratio(self) -> float:
        """hits / (hits + misses) across the run."""
        hits = self.counter("cache.hits")
        total = hits + self.counter("cache.misses")
        return hits / total if total else 0.0


def run_instances(
    config: ClusterConfig,
    instance_params: _t.Sequence[MicroBenchParams],
    record: bool = False,
) -> RunOutcome:
    """Build a cluster, run all instances concurrently, gather results.

    ``record=True`` attaches a bus-tap recorder (see module docstring).
    """
    cluster = Cluster(config)
    env = cluster.env
    recorder = None
    if record:
        from repro.workload.record import TraceRecorder

        recorder = TraceRecorder(cluster)
        recorder.tap()
    benches = [MicroBenchmark(p) for p in instance_params]
    procs = []
    for bench in benches:
        procs.extend(bench.spawn(cluster))
    done = env.all_of(procs)
    start = env.now
    env.run(until=done)
    total = env.now - start
    trace = None
    if recorder is not None:
        recorder.close()
        trace = recorder.trace(
            source="microbench",
            compute_nodes=config.compute_nodes,
            iod_nodes=config.iod_nodes,
            caching=config.caching,
        )
    metrics = cluster.metrics
    return RunOutcome(
        instances=[
            InstanceResult(
                instance=b.params.instance,
                makespan=b.makespan,
                per_rank=dict(b.completion_times),
            )
            for b in benches
        ],
        total_time=total,
        mean_read_latency=metrics.mean("client.read_latency"),
        mean_write_latency=metrics.mean("client.write_latency"),
        counters=dict(metrics.counters),
        cluster=cluster,
        trace=trace,
    )

