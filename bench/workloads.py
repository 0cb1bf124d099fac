"""The five benchmark workloads: parameters, inputs, defining properties.

Every workload is a :class:`Workload` value.  :func:`synthesize` turns
one plus a seed into Trace IR with the program's own library
generators; :func:`cluster_config` names the topology it runs on (size
fields only, so every model seam stays at the program's default);
:func:`warm` pre-loads iod page caches where the workload says so; and
:func:`property_violations` checks the property that makes the workload
what it is, so a drifted workload fails loudly instead of silently
measuring something else.

Op counts are frozen for ``--seconds`` = :data:`REFERENCE_SECONDS` and
scale linearly with ``--seconds``: the work is a function of (seed,
seconds) only, never of how fast the host is, which is what keeps the
simulated-clock metrics bit-reproducible.  See ``bench/README.md`` for
the calibration procedure.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.workload.openloop import OpenLoopParams, generate
from repro.workload.pattern import AccessPattern
from repro.workload.trace import Trace, TraceEvent

#: ``--seconds`` at which the op counts below give a timed region of
#: about that many host seconds on the 2-core reference host.
REFERENCE_SECONDS = 8.0

MB = 2**20

SHARED_PATH = "/shared/dataset"
PRIVATE_PATH = "/private/instance-{instance}"

#: Mean of the exponential think time between closed-loop requests;
#: the micro-benchmark's model of OS scheduling noise.
THINK_MEAN_S = 50e-6


@dataclasses.dataclass(frozen=True)
class Instance:
    """One closed-loop application instance (one rank per node)."""

    op: str  # "read" | "write"
    locality: float
    sharing: float
    #: Share of writes issued as coherent ``sync_write``.
    sync_fraction: float = 0.0
    #: Rank ``k`` runs on node ``(k + node_shift) % ranks``.
    node_shift: int = 0
    #: Where the instance starts its walk of the shared file, in
    #: request slots (negative: that far before the partition's end).
    shared_start_slot: int = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    """Parameters of one workload at :data:`REFERENCE_SECONDS`."""

    name: str
    why: str
    compute_nodes: int
    iod_nodes: int
    request_bytes: int
    #: Violated-property messages for a dict of timed-pass metrics.
    properties: _t.Callable[[_t.Mapping[str, float]], list[str]]
    separate_iod_nodes: bool = False
    # -- closed loop -------------------------------------------------------
    instances: tuple[Instance, ...] = ()
    ops_per_rank: int = 0
    partition_bytes: int = 0
    #: Rank ``k``'s partition starts ``k * rank_skew_bytes`` further in.
    rank_skew_bytes: int = 0
    #: Pre-read every byte the trace reads, bypassing the client cache,
    #: so the timed region finds the iod page caches warm.
    warm: bool = False
    # -- open loop ---------------------------------------------------------
    rate_ops_s: float = 0.0
    duration_s: float = 0.0

    @property
    def loop(self) -> str:
        """``"closed"`` (instances of ranks) or ``"open"`` (arrivals)."""
        return "closed" if self.instances else "open"


def _miss_stream_properties(m: _t.Mapping[str, float]) -> list[str]:
    out = []
    if m["cache.hit_ratio"] != 0:
        out.append(f"cache.hit_ratio {m['cache.hit_ratio']} != 0")
    if m["disk.bytes_read"] != 0:
        out.append(f"disk.bytes_read {m['disk.bytes_read']} != 0")
    return out


def _shared_hits_properties(m: _t.Mapping[str, float]) -> list[str]:
    out = []
    if not 0.90 <= m["cache.hit_ratio"] <= 0.97:
        out.append(f"cache.hit_ratio {m['cache.hit_ratio']} not in [0.90, 0.97]")
    # Every trip to net/iod/disk starts as an iod request.
    if m["pvfs.iod_requests"] >= 0.10 * m["ops.completed"]:
        out.append(
            f"pvfs.iod_requests {m['pvfs.iod_requests']} is not < 10 % of "
            f"{m['ops.completed']} ops"
        )
    return out


def _cold_disk_properties(m: _t.Mapping[str, float]) -> list[str]:
    if m["disk.pagecache_hit_ratio"] >= 0.05:
        return [
            f"disk.pagecache_hit_ratio {m['disk.pagecache_hit_ratio']} >= 0.05"
        ]
    return []


def _rw_coherent_properties(m: _t.Mapping[str, float]) -> list[str]:
    return [
        f"{name} is 0"
        for name in ("pvfs.invalidations_sent", "cache.flusher_bytes")
        if m[name] <= 0
    ]


def _meta_openloop_properties(m: _t.Mapping[str, float]) -> list[str]:
    if m["sim.makespan_s"] > 1.05 * m["sim.schedule_s"]:
        return [
            f"backlog grew: makespan {m['sim.makespan_s']} s > 1.05 x "
            f"schedule {m['sim.schedule_s']} s"
        ]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="miss_stream",
            why="Client cache always misses, iod page caches warm: "
            "allocate/evict/harvest + socket FSM + wire + iod CPU, disk "
            "idle (paper Fig. 4a worst case).",
            compute_nodes=4,
            iod_nodes=4,
            request_bytes=65536,
            instances=(Instance("read", locality=0.0, sharing=0.0),),
            ops_per_rank=3300,
            partition_bytes=48 * MB,
            warm=True,
            properties=_miss_stream_properties,
        ),
        Workload(
            name="shared_hits",
            why="Two co-located instances share a file: one's misses are "
            "the other's hits (paper Figs 5-8); hit path dominates, "
            "net/iod/disk nearly idle.",
            compute_nodes=4,
            iod_nodes=4,
            request_bytes=4096,
            instances=(
                # Two slots apart, as the micro-benchmark staggers its
                # instances: each first-touches half the shared data.
                Instance("read", locality=0.9, sharing=0.8),
                Instance("read", locality=0.9, sharing=0.8, shared_start_slot=2),
            ),
            ops_per_rank=18000,
            partition_bytes=8 * MB,
            warm=True,
            properties=_shared_hits_properties,
        ),
        Workload(
            name="cold_disk",
            why="As miss_stream but 3x the iod page cache and cold: every "
            "block comes off the spindle, so disk-model and page-cache "
            "changes show here and nowhere else.",
            compute_nodes=4,
            iod_nodes=4,
            request_bytes=65536,
            instances=(Instance("read", locality=0.0, sharing=0.0),),
            ops_per_rank=3000,
            partition_bytes=192 * MB,
            # One stripe unit of skew per rank: the ranks walk the iods
            # in rotation.  Unskewed they all queue on the same spindle
            # at every step, and which rank waits longest - hence p99 -
            # flips with the seed.
            rank_skew_bytes=65536,
            properties=_cold_disk_properties,
        ),
        Workload(
            name="rw_coherent",
            why="Readers and a remote 30 % sync_write writer on one shared "
            "file: dirty list, write-behind, harvester dirty flushes, iod "
            "writeback, invalidation fan-out - the cache used the other "
            "way round.",
            compute_nodes=4,
            iod_nodes=4,
            request_bytes=16384,
            instances=(
                Instance("read", locality=0.5, sharing=0.5),
                # Writer locality stays 0: re-writing a block while its
                # write-behind flush is in flight trips a lost-update
                # race in the program (see bench/README.md).
                # Starting 16 slots before the end, the writer wraps onto
                # blocks the reader has just cached, so invalidations
                # flow from the first second on, not only after a lap.
                Instance(
                    "write", locality=0.0, sharing=1.0, sync_fraction=0.3,
                    node_shift=1, shared_start_slot=-16,
                ),
            ),
            ops_per_rank=3000,
            partition_bytes=2 * MB,
            properties=_rw_coherent_properties,
        ),
        Workload(
            name="meta_openloop",
            why="Open-loop Poisson arrivals at ~70 % of the single-mgr "
            "knee, every op opens a fresh file: mgr + svc dispatch + "
            "connection set-up on a 128-node event queue, cache and disk "
            "nearly idle.",
            compute_nodes=64,
            iod_nodes=64,
            separate_iod_nodes=True,
            request_bytes=4096,
            rate_ops_s=3000.0,
            duration_s=8.5,
            properties=_meta_openloop_properties,
        ),
    )
}


def cluster_config(workload: Workload) -> ClusterConfig:
    """Topology and size only: every model seam keeps its default."""
    return ClusterConfig(
        compute_nodes=workload.compute_nodes,
        iod_nodes=workload.iod_nodes,
        separate_iod_nodes=workload.separate_iod_nodes,
    )


def resolved_seams(config: ClusterConfig) -> dict[str, _t.Any]:
    """What the program resolved each model seam to (provenance)."""
    return {
        "net_model": config.resolved_net_model,
        "disk_model": config.resolved_disk_model,
        "engine_macro": config.resolved_engine_macro,
        "engine_shards": config.resolved_engine_shards,
        "mgr_shards": config.resolved_mgr_shards,
        "fabric": config.costs.fabric,
    }


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _closed_trace(workload: Workload, seed: int, scale: float) -> Trace:
    ranks = workload.compute_nodes
    ops = max(1, round(workload.ops_per_rank * scale))
    events: list[TraceEvent] = []
    placement: dict[str, str] = {}
    for number, instance in enumerate(workload.instances):
        path = PRIVATE_PATH.format(instance=number)
        for rank in range(ranks):
            process = f"i{number}r{rank}"
            placement[process] = f"node{(rank + instance.node_shift) % ranks}"
            # Like the micro-benchmark: the access stream is per rank
            # and *shared* by the instances (same program, same
            # arguments), the scheduling jitter is per process.
            pattern = AccessPattern(
                request_size=workload.request_bytes,
                partition_start=rank
                * (workload.partition_bytes + workload.rank_skew_bytes),
                partition_bytes=workload.partition_bytes,
                locality=instance.locality,
                sharing=instance.sharing,
                seed=_seed_int(seed, rank),
                shared_start_slot=instance.shared_start_slot,
            )
            jitter = np.random.default_rng(_seed_int(seed, rank, number, 1))
            for index, access in enumerate(pattern.stream(ops)):
                think_s = float(jitter.exponential(THINK_MEAN_S))
                op = instance.op
                if op == "write" and jitter.random() < instance.sync_fraction:
                    op = "sync_write"
                events.append(
                    TraceEvent(
                        # Closed loop ignores the stamp; the op index
                        # keeps each process's stream in issue order.
                        time=float(index),
                        process=process,
                        path=SHARED_PATH if access.target == "shared" else path,
                        op=op,
                        offset=access.offset,
                        nbytes=access.nbytes,
                        app=workload.name,
                        instance=number,
                        think_s=think_s,
                    )
                )
    trace = Trace(events)
    trace.meta["placement"] = placement
    return trace


def open_loop_trace(
    workload: Workload, seed: int, rate_ops_s: float, duration_s: float
) -> Trace:
    """The open-loop arrival schedule at one offered rate (the knee
    probe sweeps the rate): every op a 4 KB buffered write at a
    uniform offset of a fresh file, process ``i`` on node ``i``."""
    params = OpenLoopParams(
        processes=workload.compute_nodes,
        duration_s=duration_s,
        rate_ops_s=rate_ops_s,
        churn=1.0,
        read_fraction=0.0,
        write_fraction=1.0,
        request_bytes=workload.request_bytes,
        access="uniform",
        seed=seed,
    )
    trace = generate(params)
    trace.meta["placement"] = {
        name: f"node{i}" for i, name in enumerate(params.process_names())
    }
    return trace


def synthesize(workload: Workload, seed: int, seconds: float) -> Trace:
    """The workload's inputs as Trace IR: a function of (seed, seconds)."""
    scale = seconds / REFERENCE_SECONDS
    if workload.loop == "closed":
        trace = _closed_trace(workload, seed, scale)
    else:
        trace = open_loop_trace(
            workload, seed, workload.rate_ops_s, workload.duration_s * scale
        )
    trace.meta.update(
        {"workload": workload.name, "seed": seed, "seconds": seconds}
    )
    return trace


def warm(cluster: Cluster, trace: Trace) -> None:
    """Read every byte range the trace reads once, sequentially and
    around the client cache, so the iod page caches hold it."""
    env = cluster.env
    placement = trace.meta["placement"]

    def one(process: str, events: list[TraceEvent]) -> _t.Generator:
        client = cluster.client(placement[process], use_cache=False)
        client.record_metrics = False
        extents: dict[str, tuple[int, int]] = {}
        for event in events:
            if event.op == "read":
                lo, hi = extents.get(event.path, (event.offset, event.end_offset))
                extents[event.path] = (
                    min(lo, event.offset), max(hi, event.end_offset)
                )
        for path, (lo, hi) in sorted(extents.items()):
            handle = yield from client.open(path)
            for pos in range(lo, hi, MB):
                yield from client.read(handle, pos, min(MB, hi - pos))

    procs = [
        env.process(one(process, events), name=f"warm-{process}")
        for process, events in sorted(trace.by_process().items())
    ]
    env.run(until=env.all_of(procs))


def property_violations(
    workload: Workload, metrics: _t.Mapping[str, float]
) -> list[str]:
    """Messages for every defining property ``metrics`` violates."""
    return [f"{workload.name}: {msg}" for msg in workload.properties(metrics)]
