"""The passes of one workload run, each meant for a fresh process.

* :func:`setup` - synthesise inputs from the seed, round-trip them
  through JSONL, build the cluster, warm it (timed as ``setup_s``).
* :func:`timed_pass` - tracing off: the end-to-end metrics and every
  count-based layer metric, plus the conservation identities.
* :func:`check_pass` - short replay with real payloads (see
  ``bench/check.py``).
* :func:`traced_pass` - same inputs with spans and the host-time
  sampler installed, plus the mgr knee probe on open-loop workloads.

Every function returns a JSON-ready dict; ``bench/run.py`` combines
them.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import typing as _t

from bench import check, driver, trace as tracing
from bench.metrics import (
    SIM_METRICS,
    layer_counts,
    percentile,
    samples_beyond,
    snapshot,
)
from bench.workloads import (
    REFERENCE_SECONDS,
    Workload,
    cluster_config,
    open_loop_trace,
    property_violations,
    resolved_seams,
    synthesize,
    warm,
)
from repro.analysis.reset import reset_all
from repro.cluster import Cluster
from repro.disk.filesystem import blocks_spanned
from repro.workload import trace as trace_ir

#: How many times the timed child sets up; ``setup_s`` is the median.
SETUPS = 3

#: Offered rates of the mgr knee probe, ops/s (ascending; the probe
#: stops at the first rate not sustained), and its latency limit.
KNEE_RATES = (4000.0, 5000.0, 6000.0, 7000.0, 8000.0)
KNEE_P99_LIMIT_S = 0.020
KNEE_SCHEDULE_S = 1.0

_SETUP_PARTS = (
    "workload.generate_s", "workload.jsonl_s", "cluster.build_s",
    "cluster.warm_s",
)


def setup(
    workload: Workload, seed: int, seconds: float
) -> tuple[Cluster, trace_ir.Trace, dict[str, float]]:
    """Inputs and a ready cluster, with what each step cost."""
    reset_all()  # module-global id counters: every set-up starts alike
    t0 = time.perf_counter()
    generated = synthesize(workload, seed, seconds)
    t1 = time.perf_counter()
    trace = trace_ir.loads(generated.dumps())
    t2 = time.perf_counter()
    cluster = Cluster(cluster_config(workload))
    t3 = time.perf_counter()
    if workload.warm:
        warm(cluster, trace)
    t4 = time.perf_counter()
    return cluster, trace, {
        "setup_s": t4 - t0,
        "workload.generate_s": t1 - t0,
        "workload.jsonl_s": t2 - t1,
        "cluster.build_s": t3 - t2,
        "cluster.warm_s": t4 - t3,
    }


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _simulated(result: driver.RunResult) -> dict[str, float]:
    """The simulated-clock metrics of one driver run."""
    latencies = result.log.latencies()
    return {
        "sim_ops_s": len(latencies) / result.makespan_s,
        "sim_lat_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_lat_p99_ms": percentile(latencies, 99) * 1e3,
    }


def _identity_violations(
    trace: trace_ir.Trace,
    result: driver.RunResult,
    delta: _t.Callable[[str], float],
    block_size: int,
) -> list[str]:
    """Conservation identities of the timed region."""
    expect = {"completed": result.attempted, "client bytes": 0, "blocks read": 0,
              "sync_writes": 0}
    for event in trace.events:
        if event.op == "sync_write":
            expect["sync_writes"] += 1
            continue
        expect["client bytes"] += event.total_bytes
        if event.op == "read":
            expect["blocks read"] += sum(
                len(blocks_spanned(off, n, block_size)) for off, n in event.ranges
            )
    got = {
        "completed": len(result.log.done),
        # The client counts buffered-write and read bytes; coherent
        # writes are counted as calls.
        "client bytes": delta("client.read_bytes") + delta("client.write_bytes"),
        "blocks read": delta("cache.hits") + delta("cache.misses")
        + delta("cache.partial_hits"),
        "sync_writes": delta("client.sync_writes"),
    }
    return [
        f"{name}: program counted {got[name]}, trace holds {expect[name]}"
        for name in expect
        if got[name] != expect[name]
    ]


def _head_path(workload: Workload, out_dir: str) -> str:
    return os.path.join(out_dir, f"{workload.name}.head.jsonl")


def timed_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    out_dir: str,
    setups: int = SETUPS,
) -> dict[str, _t.Any]:
    """Tracing off: end-to-end metrics, layer counts, identities.

    Leaves the head of the trace it ran in ``out_dir`` for the check
    pass, so the bytes that get checked are the inputs that were timed.
    """
    parts: list[dict[str, float]] = []
    for _ in range(setups):
        cluster, trace, part = setup(workload, seed, seconds)
        parts.append(part)
    gc.collect()  # set-up garbage is not the timed region's to collect
    before = snapshot(cluster)
    cpu_before = _cpu_s()
    result = driver.run(cluster, trace)
    cpu_s = _cpu_s() - cpu_before
    after = snapshot(cluster)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    os.makedirs(out_dir, exist_ok=True)
    with open(_head_path(workload, out_dir), "w") as fp:
        trace_ir.Trace(
            trace.events[: check.CHECK_EVENTS], meta=dict(trace.meta)
        ).dump_jsonl(fp)
    latencies = result.log.latencies()
    layers = layer_counts(before, after)
    events = layers["sim.events"]
    layers.update(
        {
            "sim.events_per_op": events / result.attempted,
            "sim.host_us_per_event": result.host_s / events * 1e6,
            "pvfs.open_lat_p50_ms": percentile(result.log.open_latency, 50) * 1e3,
            "pvfs.open_lat_p99_ms": percentile(result.log.open_latency, 99) * 1e3,
            "workload.trace_events": len(trace),
            "proc.cpu_s": cpu_s,
            **{
                name: statistics.median(part[name] for part in parts)
                for name in _SETUP_PARTS
            },
        }
    )
    facts = {
        **layers,
        "ops.completed": len(latencies),
        "sim.makespan_s": result.makespan_s,
        "sim.schedule_s": float(trace.meta.get("duration_s", 0.0)),
    }
    return {
        "content_hash": trace.content_hash(),
        "seams": resolved_seams(cluster.config),
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.log.errors + ([result.stalled] if result.stalled else []),
        "end_to_end": {
            "setup_s": statistics.median(part["setup_s"] for part in parts),
            "host_s": result.host_s,
            "peak_rss_mb": peak_rss_mb,
            **_simulated(result),
        },
        "layers": layers,
        "makespan_s": result.makespan_s,
        "samples": {
            "sim_lat": len(latencies),
            "sim_lat_beyond_p99": samples_beyond(len(latencies), 99),
            "open_lat": len(result.log.open_latency),
            "setups": setups,
        },
        "identities": _identity_violations(
            trace, result, delta, cluster.config.cache.block_size
        ),
        "properties": property_violations(workload, facts),
    }


def check_pass(
    workload: Workload, seed: int, seconds: float, out_dir: str
) -> dict[str, _t.Any]:
    """Short replay with real payloads against the reference."""
    head = trace_ir.load_path(_head_path(workload, out_dir))
    ran = (head.meta.get("workload"), head.meta.get("seed"), head.meta.get("seconds"))
    if ran != (workload.name, seed, seconds):
        raise RuntimeError(f"stale trace head {ran} in {out_dir}")
    reset_all()
    return check.run_check(workload, head)


def _knee(workload: Workload, seed: int, seconds: float) -> dict[str, _t.Any]:
    """Highest offered rate the single mgr sustains within the limit."""
    duration_s = KNEE_SCHEDULE_S * seconds / REFERENCE_SECONDS
    knee, rows = 0.0, []
    for rate in KNEE_RATES:
        reset_all()
        probe = open_loop_trace(workload, seed, rate, duration_s)
        result = driver.run(Cluster(cluster_config(workload)), probe)
        p99_s = percentile(result.log.latencies(), 99)
        sustained = (
            result.failed == 0
            and p99_s <= KNEE_P99_LIMIT_S
            and result.makespan_s <= 1.05 * duration_s
        )
        rows.append(
            {"rate_ops_s": rate, "p99_ms": p99_s * 1e3,
             "makespan_s": result.makespan_s, "ops": result.attempted,
             "sustained": sustained}
        )
        if not sustained:
            break
        knee = rate
    return {"knee_ops_s": knee, "rates": rows}


def traced_pass(
    workload: Workload, seed: int, seconds: float, out_dir: str
) -> dict[str, _t.Any]:
    """Same inputs, spans and sampler on: the per-layer numbers."""
    cluster, trace, _parts = setup(workload, seed, seconds)
    env = cluster.env
    gc.collect()
    sampler = tracing.Sampler()
    fabric = cluster.network.fabric
    queue_hw = 0

    def probe_queue() -> None:
        # Frames waiting on the fabric, as the program's own monitor
        # reads it; sampled as ops complete so it repeats exactly.
        nonlocal queue_hw
        queue_hw = max(queue_hw, getattr(fabric, "utilization_queue", 0))

    with tracing.installed(env) as tracer:
        before = snapshot(cluster)
        result = driver.run(
            cluster, trace, region=sampler, after_op=probe_queue
        )
        after = snapshot(cluster)
    totals = tracer.totals()

    def total(prefix: str, column: int) -> float:
        return sum(
            row[column] for name, row in totals.items() if name.startswith(prefix)
        )

    layers = {
        "cache.select_victims_calls": total("BufferManager.select_victims", 0),
        "cache.select_victims_host_s": total("BufferManager.select_victims", 2),
        "cache.read_busy_s": total("CacheModule.read", 1),
        "cache.write_busy_s": total("CacheModule.write", 1)
        + total("CacheModule.sync_write", 1),
        "net.queue_hw": queue_hw,
        "pvfs.iod_busy_s": total("svc.dispatch/Iod/", 1),
        "pvfs.mgr_busy_s": total("svc.dispatch/MetadataServer/", 1),
        "svc.rpc_calls": total("RpcChannel.call", 0),
        "svc.rpc_timeouts": sum(ch.timed_out for ch in tracer.channels),
        "pvfs.mgr_knee_ops_s": 0.0,
        **sampler.shares(),
    }
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{workload.name}.spans.jsonl")
    out: dict[str, _t.Any] = {
        "content_hash": trace.content_hash(),
        "host_s": result.host_s,
        "failed": result.failed,
        "events": layer_counts(before, after)["sim.events"],
        "makespan_s": result.makespan_s,
        "simulated": _simulated(result),
        "layers": layers,
        "samples": {"host_share": sampler.samples, "spans": tracer.dump(spans_path)},
        "spans_file": spans_path,
        "span_totals": {
            name: {"count": c, "sim_s": s, "host_s": h}
            for name, (c, s, h) in sorted(totals.items())
        },
    }
    if workload.loop == "open":
        out["knee"] = _knee(workload, seed, seconds)
        layers["pvfs.mgr_knee_ops_s"] = out["knee"]["knee_ops_s"]
    return out


def schedule_mismatches(
    timed: _t.Mapping[str, _t.Any], traced: _t.Mapping[str, _t.Any]
) -> list[str]:
    """Where the traced pass failed to reproduce the timed pass."""
    pairs = [
        ("content_hash", timed["content_hash"], traced["content_hash"]),
        ("sim.events", timed["layers"]["sim.events"], traced["events"]),
        ("makespan_s", timed["makespan_s"], traced["makespan_s"]),
        *(
            (name, timed["end_to_end"][name], traced["simulated"][name])
            for name in SIM_METRICS
        ),
    ]
    return [
        f"traced pass changed {name}: {a!r} -> {b!r}"
        for name, a, b in pairs
        if a != b
    ]
