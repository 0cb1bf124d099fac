"""Metric names, units, and how each is read off a cluster.

Two tables name every number the benchmark prints.  ``END_TO_END`` is
what a user of the simulator sees (and what ``BENCHMARK.json`` bounds);
``PER_LAYER`` is one row per layer metric, grouped by the ``src/repro``
package that does the work.

Counts are *deltas over the timed region*: :func:`snapshot` reads every
public counter of a cluster into one flat dict, the pass takes one
before and one after, and :func:`layer_counts` turns the difference
into the named metrics.  To add a counter, read it in :func:`snapshot`,
name it in :func:`layer_counts`, and add its row to ``PER_LAYER`` — no
workload changes.
"""

from __future__ import annotations

import math
import typing as _t

from repro.svc import get_bus

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before it is a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("host_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_ops_s", "1/s", "higher", 0.15),
    ("sim_lat_p50_ms", "ms", "lower", 0.15),
    ("sim_lat_p99_ms", "ms", "lower", 0.25),
)

#: Simulated-clock metrics: a function of (commit, seed, seconds) only.
SIM_METRICS = ("sim_ops_s", "sim_lat_p50_ms", "sim_lat_p99_ms")

#: (name, unit, better, pass): ``timed`` rows come from the untraced
#: timed pass, ``traced`` rows need the traced pass.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    # -- sim: the event engine -------------------------------------------
    ("sim.events", "count", "lower", "timed"),
    ("sim.events_per_op", "1/op", "lower", "timed"),
    ("sim.host_us_per_event", "us", "lower", "timed"),
    ("sim.queue_depth_hw", "count", "lower", "timed"),
    ("sim.timers_cancelled", "count", "lower", "timed"),
    ("sim.bursts_coalesced", "count", "higher", "timed"),
    ("sim.host_share", "fraction", "lower", "traced"),
    # -- cache: the per-node shared block cache ----------------------------
    ("cache.hit_ratio", "fraction", "higher", "timed"),
    ("cache.hits", "count", "higher", "timed"),
    ("cache.misses", "count", "lower", "timed"),
    ("cache.evictions", "count", "lower", "timed"),
    ("cache.pending_waits", "count", "lower", "timed"),
    ("cache.invalidated_blocks", "count", "lower", "timed"),
    ("cache.deferred_invalidations", "count", "lower", "timed"),
    ("cache.flusher_batches", "count", "lower", "timed"),
    ("cache.flusher_bytes", "B", "lower", "timed"),
    ("cache.harvester_activations", "count", "lower", "timed"),
    ("cache.harvester_dirty_flushes", "count", "lower", "timed"),
    ("cache.select_victims_calls", "count", "lower", "traced"),
    ("cache.select_victims_host_s", "s", "lower", "traced"),
    ("cache.read_busy_s", "s", "lower", "traced"),
    ("cache.write_busy_s", "s", "lower", "traced"),
    ("cache.host_share", "fraction", "lower", "traced"),
    # -- net: sockets, fabric, wire ----------------------------------------
    ("net.bytes", "B", "lower", "timed"),
    ("net.messages", "count", "lower", "timed"),
    ("net.frames", "count", "lower", "timed"),
    ("net.wire_busy_s", "s", "lower", "timed"),
    ("net.queue_hw", "count", "lower", "traced"),
    ("net.host_share", "fraction", "lower", "traced"),
    # -- disk: spindle, page cache, writeback ------------------------------
    ("disk.bytes_read", "B", "lower", "timed"),
    ("disk.bytes_written", "B", "lower", "timed"),
    ("disk.seeks", "count", "lower", "timed"),
    ("disk.busy_s", "s", "lower", "timed"),
    ("disk.pagecache_hit_ratio", "fraction", "higher", "timed"),
    ("disk.writeback_bytes", "B", "lower", "timed"),
    ("disk.host_share", "fraction", "lower", "traced"),
    # -- pvfs: libpvfs client, iods, mgr -----------------------------------
    ("pvfs.iod_requests", "count", "lower", "timed"),
    ("pvfs.iod_bytes", "B", "lower", "timed"),
    ("pvfs.iod_busy_s", "s", "lower", "traced"),
    ("pvfs.mgr_opens", "count", "lower", "timed"),
    ("pvfs.mgr_busy_s", "s", "lower", "traced"),
    ("pvfs.open_lat_p50_ms", "ms", "lower", "timed"),
    ("pvfs.open_lat_p99_ms", "ms", "lower", "timed"),
    ("pvfs.invalidations_sent", "count", "lower", "timed"),
    ("pvfs.mgr_knee_ops_s", "1/s", "higher", "traced"),
    ("pvfs.host_share", "fraction", "lower", "traced"),
    # -- svc: service runtime ----------------------------------------------
    ("svc.dispatches", "count", "lower", "timed"),
    ("svc.rpc_calls", "count", "lower", "traced"),
    ("svc.rpc_timeouts", "count", "lower", "traced"),
    ("svc.host_share", "fraction", "lower", "traced"),
    # -- workload, cluster: what set-up costs ------------------------------
    ("workload.trace_events", "count", "lower", "timed"),
    ("workload.generate_s", "s", "lower", "timed"),
    ("workload.jsonl_s", "s", "lower", "timed"),
    ("cluster.build_s", "s", "lower", "timed"),
    ("cluster.warm_s", "s", "lower", "timed"),
    # -- process -----------------------------------------------------------
    ("proc.cpu_s", "s", "lower", "timed"),
    ("metrics.host_share", "fraction", "lower", "traced"),
    ("analysis.host_share", "fraction", "lower", "traced"),
    ("other.host_share", "fraction", "lower", "traced"),
    ("trace.overhead_ratio", "ratio", "lower", "traced"),
)

#: Buckets of the host-time sampler; shares over these sum to 1.
HOST_SHARE_LAYERS = (
    "sim", "cache", "net", "disk", "pvfs", "svc", "metrics", "analysis",
    "other",
)

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _b, _bound in END_TO_END},
    **{name: unit for name, unit, _b, _p in PER_LAYER},
}


def percentile(data: _t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the program's ``Metrics.percentile``)."""
    if not data:
        return math.nan
    ordered = sorted(data)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def snapshot(cluster: "Cluster") -> dict[str, float]:
    """Every public counter of ``cluster`` in one flat dict."""
    snap: dict[str, float] = dict(cluster.metrics.counters)
    for key, value in cluster.env.sched_stats().items():
        snap[f"sched.{key}"] = value
    for key, value in cluster.network.stats_snapshot().items():
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            snap[f"fabric.{key}"] = value
    service_s = 0.0
    for node in cluster.nodes.values():
        disk = node.disk
        if disk is None:
            continue
        # Spindle service time follows from the model's own public
        # constants: positioning per seek plus media transfer.
        service_s += (
            disk.seeks * (disk.avg_seek_s + disk.half_rotation_s)
            + (disk.bytes_read + disk.bytes_written) / disk.transfer_bytes_per_s
        )
        for key, value in (
            ("disk.bytes_read", disk.bytes_read),
            ("disk.bytes_written", disk.bytes_written),
            ("disk.seeks", disk.seeks),
            ("disk.writeback_bytes", node.writeback.bytes_written),
        ):
            snap[key] = snap.get(key, 0) + value
    snap["disk.service_s"] = service_s
    snap["svc.messages_handled"] = sum(
        stats.messages_handled for stats in get_bus(cluster.env).stats.values()
    )
    return snap


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_counts(
    before: _t.Mapping[str, float], after: _t.Mapping[str, float]
) -> dict[str, float]:
    """The count-based per-layer metrics of one timed region."""

    def d(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    return {
        "sim.events": d("sched.events_processed"),
        "sim.queue_depth_hw": after.get("sched.queue_depth_hw", 0),
        "sim.timers_cancelled": d("sched.timers_cancelled"),
        "sim.bursts_coalesced": d("sched.bursts_coalesced"),
        "cache.hit_ratio": _ratio(d("cache.hits"), d("cache.misses")),
        "cache.hits": d("cache.hits"),
        "cache.misses": d("cache.misses"),
        "cache.evictions": d("cache.evictions"),
        "cache.pending_waits": d("cache.pending_waits"),
        "cache.invalidated_blocks": d("cache.invalidated_blocks"),
        "cache.deferred_invalidations": d("cache.deferred_invalidations"),
        "cache.flusher_batches": d("flusher.batches"),
        "cache.flusher_bytes": d("flusher.bytes"),
        "cache.harvester_activations": d("harvester.activations"),
        "cache.harvester_dirty_flushes": d("harvester.dirty_flushes"),
        "net.bytes": d("fabric.bytes_transferred"),
        "net.messages": d("fabric.messages_delivered"),
        # The fluid model moves flows, not frames.
        "net.frames": d("fabric.frames_transferred") or d("fabric.flows_completed"),
        "net.wire_busy_s": d("fabric.wire_busy_s"),
        "disk.bytes_read": d("disk.bytes_read"),
        "disk.bytes_written": d("disk.bytes_written"),
        "disk.seeks": d("disk.seeks"),
        "disk.busy_s": d("disk.service_s"),
        "disk.pagecache_hit_ratio": _ratio(
            d("iod.pagecache_hits"), d("iod.pagecache_misses")
        ),
        "disk.writeback_bytes": d("disk.writeback_bytes"),
        "pvfs.iod_requests": d("iod.reads") + d("iod.writes")
        + d("iod.sync_writes") + d("iod.flush_batches"),
        "pvfs.iod_bytes": d("iod.read_bytes") + d("iod.write_bytes")
        + d("iod.flushed_bytes"),
        "pvfs.mgr_opens": d("mgr.opens"),
        "pvfs.invalidations_sent": d("iod.invalidations_sent"),
        "svc.dispatches": d("svc.messages_handled"),
    }
