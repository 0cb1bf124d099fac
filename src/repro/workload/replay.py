"""Deterministic replay of workload traces against any cluster.

The replayer turns a :class:`~repro.workload.trace.Trace` back into
simulated application processes — one per distinct process name — and
re-issues every request through the ordinary libpvfs client API, so a
replay exercises exactly the code paths (cache module, fast paths,
iods) a live application would.

Determinism: processes are spawned in sorted process-name order, each
replays its events in canonical trace order, and nothing consults wall
clock or unseeded randomness — so replaying the same trace against the
same configuration reproduces the same schedule bit-for-bit under the
engine's BLAKE2b trace hash, in this process or in a parallel sweep
worker (:func:`replay_trace_hash` packages that check).

Timing modes:

* ``preserve_timing=True`` (open loop): each request waits until its
  recorded timestamp; gaps of the original run are kept.
* ``preserve_timing=False`` (closed loop): requests are issued
  back-to-back, honoring only each event's explicit ``think_s`` —
  this is how "replay the workload against a different config" should
  run, and what ``python -m repro.workload replay`` does by default.
"""

from __future__ import annotations

import contextlib
import os
import typing as _t

from repro.sim import Process
from repro.workload.trace import Trace, TraceEvent

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster


class TraceReplayer:
    """Re-run a recorded trace on a (possibly different) cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        trace: "Trace | _t.Sequence[TraceEvent]",
        placement: dict[str, str] | None = None,
        preserve_timing: bool = True,
    ) -> None:
        self.cluster = cluster
        self.trace = trace if isinstance(trace, Trace) else Trace(list(trace))
        self.preserve_timing = preserve_timing
        self._streams = self.trace.by_process()
        processes = sorted(self._streams)
        if placement is not None:
            for process in processes:
                if process not in placement:
                    raise ValueError(f"no placement for process {process!r}")
            self.placement = dict(placement)
        else:
            nodes = cluster.compute_nodes
            self.placement = {
                process: nodes[i % len(nodes)]
                for i, process in enumerate(processes)
            }
        unknown = sorted(
            {n for n in self.placement.values()} - set(cluster.compute_nodes)
        )
        if unknown:
            raise ValueError(f"placement names unknown nodes {unknown}")
        #: Per-process elapsed replay time, filled as processes finish.
        self.completion: dict[str, float] = {}

    def spawn(self) -> list[Process]:
        """Start one replay process per trace process; returns them."""
        return [
            self.cluster.env.process(
                self._replay_one(process, self._streams[process]),
                name=f"replay-{process}",
            )
            for process in sorted(self._streams)
        ]

    def run(self) -> float:
        """Replay to completion; returns the makespan."""
        env = self.cluster.env
        start = env.now
        env.run(until=env.all_of(self.spawn()))
        return env.now - start

    def _replay_one(
        self, process: str, events: list[TraceEvent]
    ) -> _t.Generator:
        env = self.cluster.env
        node = self.placement[process]
        client = self.cluster.client(node)
        client.process_name = process
        if events:
            client.app = events[0].app
            client.instance = events[0].instance
        handles: dict[str, _t.Any] = {}
        start = env.now
        for event in events:
            if self.preserve_timing:
                delay = (start + event.time) - env.now
                if delay > 0:
                    yield env.timeout(delay)
            elif event.think_s > 0:
                yield env.timeout(event.think_s)
            handle = handles.get(event.path)
            if handle is None:
                handle = yield from client.open(event.path)
                handles[event.path] = handle
            if event.is_list:
                if event.op == "read":
                    yield from client.readv(handle, event.ranges)
                else:
                    yield from client.writev(
                        handle, event.ranges, sync=event.op == "sync_write"
                    )
            elif event.op == "read":
                yield from client.read(handle, event.offset, event.nbytes)
            elif event.op == "write":
                yield from client.write(handle, event.offset, event.nbytes)
            else:
                yield from client.sync_write(
                    handle, event.offset, event.nbytes
                )
        self.completion[process] = env.now - start

    @property
    def makespan(self) -> float:
        """Slowest process's elapsed replay time."""
        if not self.completion:
            raise RuntimeError("replay has not finished")
        return max(self.completion.values())


# -- picklable sweep/CLI entry points --------------------------------------
@contextlib.contextmanager
def _trace_hashing() -> _t.Iterator[None]:
    """Environments built inside the block hash their schedules."""
    from repro.sim.engine import TRACE_HASH_ENV_VAR

    previous = os.environ.get(TRACE_HASH_ENV_VAR)
    os.environ[TRACE_HASH_ENV_VAR] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(TRACE_HASH_ENV_VAR, None)
        else:
            os.environ[TRACE_HASH_ENV_VAR] = previous


def _fig4_point(d: int, mode: str, p: int, iterations: int, seed: int):
    """The cluster and micro-benchmark one quick fig4 point runs
    (caching on, locality 0): ``(config, [params])``."""
    from repro.cluster.config import ClusterConfig
    from repro.workload.microbench import MicroBenchParams

    config = ClusterConfig(compute_nodes=p, iod_nodes=p, caching=True)
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=d,
        iterations=iterations,
        mode=mode,
        locality=0.0,
        partition_bytes=2 * 2**20,
        seed=seed,
    )
    return config, [params]


def fig4_point_trace_hash(
    d: int = 4096,
    mode: str = "read",
    p: int = 2,
    iterations: int = 8,
    seed: int = 1234,
) -> str:
    """BLAKE2b schedule hash of one quick fig4 point.

    Identical arguments must produce identical digests — in this
    process, across processes, and through the parallel sweep runner.
    Top-level so it is picklable.
    """
    from repro.workload.runner import run_instances

    with _trace_hashing():
        outcome = run_instances(*_fig4_point(d, mode, p, iterations, seed))
    return outcome.cluster.env.trace_hash()


def record_microbench_trace(
    d: int = 4096,
    mode: str = "read",
    p: int = 2,
    iterations: int = 8,
    seed: int = 1234,
) -> str:
    """Record the run :func:`fig4_point_trace_hash` hashes; returns
    JSONL trace text.  Top-level and string-in/string-out, so it is
    picklable for the parallel sweep.
    """
    from repro.workload.runner import run_instances

    outcome = run_instances(
        *_fig4_point(d, mode, p, iterations, seed), record=True
    )
    assert outcome.trace is not None
    return outcome.trace.dumps()


def replay_trace_hash(
    trace_text: str,
    compute_nodes: int = 2,
    iod_nodes: int = 2,
    caching: bool = True,
    preserve_timing: bool = False,
) -> str:
    """BLAKE2b schedule hash of replaying ``trace_text``.

    Identical text and arguments must produce identical digests — in
    this process, across processes, and through the parallel sweep
    runner.  Top-level so it is picklable.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig
    from repro.workload.trace import loads

    trace = loads(trace_text)
    with _trace_hashing():
        cluster = Cluster(
            ClusterConfig(
                compute_nodes=compute_nodes,
                iod_nodes=iod_nodes,
                caching=caching,
            )
        )
        TraceReplayer(
            cluster, trace, preserve_timing=preserve_timing
        ).run()
    return cluster.env.trace_hash()
