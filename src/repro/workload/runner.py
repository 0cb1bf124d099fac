"""Run one cluster configuration with one or more benchmark instances.

This is the choke point every experiment driver goes through, so it is
where the trace IR plugs into the stack:

* ``record=True`` taps the run via the instrumentation bus and returns
  the recorded :class:`~repro.workload.trace.Trace` on
  ``RunOutcome.trace`` — any driver's workload can be serialized.
* When the config resolves a trace source (``trace_source`` field or
  ``REPRO_TRACE``), the synthetic benchmark described by
  ``instance_params`` is *replaced* by a closed-loop replay of that
  trace on the configured cluster — so "run fig5 against this recorded
  workload" needs no driver changes at all.
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

    With a resolved trace source the synthetic instances are replaced
    by a replay of that trace (see module docstring); ``record=True``
    attaches a bus-tap recorder either way.
    """
    trace_source = config.resolved_trace_source
    if trace_source is not None:
        return _run_replay(config, trace_source, record=record)
    cluster = Cluster(config)
    env = cluster.env
    recorder = _tap(cluster) if record else None
    benches = [MicroBenchmark(p) for p in instance_params]
    procs = []
    for bench in benches:
        procs.extend(bench.spawn(cluster))
    done = env.all_of(procs)
    start = env.now
    env.run(until=done)
    total = env.now - start
    cluster.record_network_metrics()  # net.* saturation counters
    cluster.record_scheduler_metrics()  # sim.* event-loop counters
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
        trace=_finish(recorder, config, "microbench"),
    )


def _tap(cluster: Cluster):
    from repro.workload.record import TraceRecorder

    recorder = TraceRecorder(cluster)
    recorder.tap()
    return recorder


def _finish(recorder, config: ClusterConfig, source: str) -> "Trace | None":
    if recorder is None:
        return None
    recorder.close()
    return recorder.trace(
        source=source,
        compute_nodes=config.compute_nodes,
        iod_nodes=config.iod_nodes,
        caching=config.caching,
    )


def _run_replay(
    config: ClusterConfig, trace_source: str, record: bool
) -> RunOutcome:
    """Replay ``trace_source`` on the configured cluster, closed-loop.

    Instances are reconstructed from the trace's instance tags: each
    tag becomes one :class:`InstanceResult`, with ranks numbered by
    sorted process name within the tag — so figure drivers keyed on
    per-instance makespans keep working on replayed runs.
    """
    from repro.workload.replay import TraceReplayer
    from repro.workload.trace import load_path

    trace = load_path(trace_source)
    cluster = Cluster(config)
    recorder = _tap(cluster) if record else None
    replayer = TraceReplayer(cluster, trace, preserve_timing=False)
    total = replayer.run()
    cluster.record_network_metrics()
    cluster.record_scheduler_metrics()
    metrics = cluster.metrics
    return RunOutcome(
        instances=_replay_instances(trace, replayer.completion),
        total_time=total,
        mean_read_latency=metrics.mean("client.read_latency"),
        mean_write_latency=metrics.mean("client.write_latency"),
        counters=dict(metrics.counters),
        cluster=cluster,
        trace=_finish(recorder, config, f"replay:{trace_source}"),
    )


def _replay_instances(
    trace: "Trace", completion: dict[str, float]
) -> list[InstanceResult]:
    """Per-instance results reconstructed from replay completions."""
    by_instance: dict[int, dict[str, float]] = {}
    tags = {e.process: e.instance for e in trace.events}
    for process, elapsed in completion.items():
        by_instance.setdefault(tags.get(process, 0), {})[process] = elapsed
    return [
        InstanceResult(
            instance=tag,
            makespan=max(completions.values()),
            per_rank={
                rank: completions[process]
                for rank, process in enumerate(sorted(completions))
            },
        )
        for tag, completions in sorted(by_instance.items())
    ]
