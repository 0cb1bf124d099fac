"""Benchmark-regression harness gating the engine fast paths.

Tracks host-side numbers in ``BENCH_engine.json`` at the repo root so
the perf trajectory is visible across PRs:

* ``events_per_sec`` — raw event-loop throughput (timeout
  schedule/fire pairs per wall-clock second, best of three);
* ``fig4_quick_sweep_s`` — end-to-end wall-clock of the quick fig4
  sweep run serially (``REPRO_SWEEP_WORKERS=1``), i.e. the simulator
  cost of a real figure reproduction with parallelism factored out;
* ``fig4_quick_sweep_fluid_s`` — the same sweep under
  ``REPRO_NET_MODEL=fluid`` (analytic bandwidth sharing);
* ``fig4_wire_hub_frames_s`` / ``fig4_wire_hub_fluid_s`` — fig4's
  transfer pattern (p=4 senders, the figure's request sizes) replayed
  through the shared-hub network alone, per contention model.  This
  isolates the network simulation cost the fluid model attacks; the
  harness additionally *gates the speedup*: the fluid replay must be
  at least ``FLUID_SPEEDUP_FLOOR``x faster than the frame replay.
* ``disk_replay_mech_s`` / ``disk_replay_queued_s`` — the iod miss
  path (bulk page-cache probe + coalesced ``io_batch``) replayed
  against the disk stack alone, per disk model.  Gated live like the
  wire replay: the queued model must stay at least
  ``DISK_SPEEDUP_FLOOR``x faster than the mechanical spindle.
* ``disk_cold_sweep_mech_s`` / ``disk_cold_sweep_queued_s`` — a quick
  fig5/fig8-style cold-cache read sweep through the full cluster with
  the page cache disabled (disk-bound end to end), per disk model;
  the queued model must beat the mechanical one outright.
* ``trace_replay_s`` — a recorded fig4-style microbench trace
  replayed closed-loop through :class:`TraceReplayer`.  Two
  host-independent gates ride along: the replay's event count must be
  identical across repeats (replay is deterministic), and must stay
  within ``TRACE_REPLAY_EVENT_OVERHEAD``x of the original recorded
  run's event count — replaying a trace must not inflate the event
  budget of the run it reproduces.
* ``openloop_knee_256_s`` / ``mgr_shard_speedup`` — the scaling
  experiment's knee point (DESIGN.md §18): a churn-heavy open-loop
  workload offered at 16k ops/s to a 256-node cluster, replayed with
  1 and with 4 metadata shards.  The wall clock of the single-shard
  point is baseline-gated; the *completed-ops speedup* of 4 shards
  over 1 is simulated time, hence deterministic and exactly
  host-independent, and must reach ``MGR_SHARD_SPEEDUP_FLOOR``.

If the baseline file is missing — or ``REPRO_BENCH_UPDATE=1`` is set —
the current numbers are written as the new baseline and the test is
skipped.  Otherwise the test fails when either metric regresses by
more than ``REGRESSION_FACTOR``; the factor is deliberately generous
because absolute numbers vary across hosts and CI runners.  After an
intentional engine change, refresh with::

    REPRO_BENCH_UPDATE=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_regression.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cluster.config import (
    DISK_MODEL_ENV_VAR,
    NET_MODEL_ENV_VAR,
)
from repro.experiments.parallel import WORKERS_ENV_VAR
from repro.sim import Environment

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Set to refresh the committed baseline instead of comparing to it.
UPDATE_ENV_VAR = "REPRO_BENCH_UPDATE"

#: A metric may be up to this many times worse than baseline before the
#: test fails.  Generous on purpose: the baseline is measured on one
#: host and compared on many.
REGRESSION_FACTOR = 2.5

#: The fluid model must keep the fig4 wire replay at least this many
#: times faster than the frame model.  Measured live (both numbers
#: from the same host in the same run), so unlike the baseline gates
#: this ratio is host-independent; observed ~3.5-4x.
FLUID_SPEEDUP_FLOOR = 2.0

#: The queued disk model must keep the iod-miss-path replay at least
#: this many times faster than the mechanical spindle.  Also measured
#: live from the same host in the same run; observed well above the
#: floor (the mechanical model pays a process spawn + Resource
#: round-trip per coalesced run, the queued model two heap events per
#: batch).
DISK_SPEEDUP_FLOOR = 2.0

#: Replaying a recorded run may process at most this many times the
#: events of the run it was recorded from.  Event counts are
#: deterministic, so the ratio is exactly host-independent; observed
#: ~1.0x (the replayer drives the same client calls the generator
#: did, minus the generator's own bookkeeping).
TRACE_REPLAY_EVENT_OVERHEAD = 1.5

#: Four metadata shards must complete at least this many times the
#: ops/s of the single mgr at the 256-node open-loop knee.  Completed
#: throughput is simulated time — deterministic, so this ratio is
#: exactly host-independent; observed ~2.5x (the single mgr pins at
#: its ~6.6k opens/s service capacity).
MGR_SHARD_SPEEDUP_FLOOR = 2.0


def _measure_events_per_sec(n_events: int = 200_000, rounds: int = 3) -> float:
    """Timeout schedule+fire pairs per second, best of ``rounds``."""

    def ticker(env):
        for _ in range(n_events):
            yield env.timeout(1)

    best = 0.0
    for _ in range(rounds):
        env = Environment()
        env.process(ticker(env))
        t0 = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - t0
        assert env.now == n_events
        best = max(best, n_events / elapsed)
    return best


def _measure_fig4_quick_sweep_s() -> float:
    """Wall-clock seconds for the serial quick fig4 sweep."""
    from repro.experiments.fig4 import run_fig4

    t0 = time.perf_counter()
    run_fig4(quick=True)
    return time.perf_counter() - t0


def _measure_fig4_wire_sweep_s(net_model: str, rounds: int = 3) -> float:
    """Fig4's transfer pattern through the shared hub alone, best of 3.

    Four senders (fig4's p=4) each stream the figure's request sizes
    as back-to-back messages over a hub-topology network.  No cache,
    disk, or PVFS machinery — this is the pure network-simulation cost
    the fluid model replaces with analytic rate sharing.
    """
    from repro.net import FluidFabric, Network, SharedHubFabric
    from repro.net.message import Message

    senders = 4
    msgs_per_size = 32
    sizes = (4096, 65536, 262144, 1048576)

    def replay() -> float:
        env = Environment()
        fabric = (
            FluidFabric(env, mode="hub")
            if net_model == "fluid"
            else SharedHubFabric(env)
        )
        net = Network(env, fabric=fabric)
        inboxes = {
            i: net.register(f"rx{i}", 1) for i in range(senders)
        }

        def stream(i):
            for size in sizes:
                for _ in range(msgs_per_size):
                    message = Message(
                        kind="data",
                        size_bytes=size,
                        src=f"tx{i}",
                        dst=f"rx{i}",
                    )
                    yield net.deliver(message, inboxes[i])
                    yield inboxes[i].get()

        for i in range(senders):
            env.process(stream(i))
        t0 = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - t0
        assert (
            net.messages_delivered == senders * len(sizes) * msgs_per_size
        )
        return elapsed

    return min(replay() for _ in range(rounds))


def _measure_disk_replay_s(disk_model: str, rounds: int = 3) -> float:
    """The iod miss path against the disk stack alone, best of 3.

    Four readers sweep disjoint regions whose *odd* blocks are already
    page-cache resident, so every 16-block request coalesces into 8
    single-block runs — the worst case for per-run process + Resource
    simulation and exactly the pattern
    :meth:`repro.pvfs.iod.Iod._ensure_resident` drives: one
    ``lookup_many`` probe, one ``io_batch`` call, residency inserted
    per run as it lands.
    """
    from repro.disk import DiskModel, PageCache, QueuedDiskModel

    readers = 4
    requests = 64
    span = 16  # blocks per request
    block = 4096
    disk_cls = QueuedDiskModel if disk_model == "queued" else DiskModel

    def replay() -> float:
        env = Environment()
        disk = disk_cls(env)
        pagecache = PageCache(capacity_blocks=readers * requests * span)
        for r in range(readers):
            base = r * requests * span
            for resident in range(base + 1, base + requests * span, 2):
                pagecache.insert(0, resident)

        def reader(r):
            base = r * requests * span
            for i in range(requests):
                first = base + i * span
                _hits, runs = pagecache.lookup_many(
                    0, range(first, first + span)
                )
                if not runs:
                    continue
                yield from disk.io_batch(
                    0,
                    [(f * block, n * block) for f, n in runs],
                    on_run_complete=lambda j, runs=runs: pagecache.insert_many(
                        0, runs[j][0], runs[j][1]
                    ),
                )

        for r in range(readers):
            env.process(reader(r))
        t0 = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - t0
        assert disk.reads == readers * requests * span // 2
        return elapsed

    return min(replay() for _ in range(rounds))


def _measure_disk_cold_sweep_s(disk_model: str, rounds: int = 6) -> float:
    """A quick fig5/fig8-style cold-cache sweep, end to end (best of 6:
    the two models end 4-13 % apart, inside the spread of best-of-2).

    Four uncached compute nodes stream reads through the full PVFS
    stack with the iod page caches disabled, so every request reaches
    the disk model — the disk-bound regime the queued model attacks.
    Runs under the fluid network model so the comparison isolates the
    storage layer's event budget (the frame model's per-frame events
    would dominate the wall clock and drown the disk's share).
    """
    from repro.cluster.config import ClusterConfig
    from repro.workload import MicroBenchParams, run_instances

    total_bytes = 2 * 2**20

    def one_sweep() -> float:
        t0 = time.perf_counter()
        for d in (16384, 65536, 262144):
            config = ClusterConfig(
                compute_nodes=4,
                iod_nodes=4,
                caching=False,
                pagecache_blocks=0,
                net_model="fluid",
                disk_model=disk_model,
            )
            params = MicroBenchParams(
                nodes=config.compute_node_names(),
                request_size=d,
                iterations=max(1, total_bytes // d),
                mode="read",
                locality=0.0,
                partition_bytes=4 * 2**20,
                seed=42,
            )
            run_instances(config, [params])
        return time.perf_counter() - t0

    return min(one_sweep() for _ in range(rounds))


def _measure_trace_replay(rounds: int = 3) -> tuple[float, int, int]:
    """A recorded microbench trace replayed closed-loop, best of 3.

    Records a fig4-style read run (p=2, 64 x 4 KB requests per rank)
    into the trace IR, then replays it against a fresh cluster of the
    same shape.  Returns (best wall-clock seconds, replay events
    processed, recorded-run events processed); both event counts are
    deterministic across rounds and hosts.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig
    from repro.workload import MicroBenchParams, run_instances
    from repro.workload.replay import TraceReplayer

    config = ClusterConfig(compute_nodes=2, iod_nodes=2)
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=4096,
        iterations=64,
        mode="read",
        locality=0.0,
        partition_bytes=2 * 2**20,
        seed=1234,
    )
    outcome = run_instances(config, [params], record=True)
    source_events = outcome.cluster.env.sched_stats()["events_processed"]
    trace = outcome.trace
    assert trace is not None and len(trace) == 2 * 64

    def replay() -> tuple[float, int]:
        cluster = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=2))
        replayer = TraceReplayer(cluster, trace, preserve_timing=False)
        t0 = time.perf_counter()
        replayer.run()
        elapsed = time.perf_counter() - t0
        return elapsed, cluster.env.sched_stats()["events_processed"]

    results = [replay() for _ in range(rounds)]
    replay_events = {events for _, events in results}
    assert len(replay_events) == 1, (
        f"trace replay event count not deterministic: {replay_events}"
    )
    return min(r[0] for r in results), results[0][1], source_events


def _measure_openloop_knee() -> tuple[float, float]:
    """The 256-node open-loop knee point, 1 vs 4 mgr shards.

    Runs the scaling experiment's saturating workload (churn-heavy,
    write-only, uniform offsets — the pure metadata-stress case) once
    per shard count.  Returns (wall-clock seconds of the single-shard
    point, completed-ops speedup of 4 shards over 1); the speedup is
    a ratio of simulated times and therefore deterministic.
    """
    from repro.experiments.scaling import scaling_point

    t0 = time.perf_counter()
    one = scaling_point(256, 1)
    knee_s = time.perf_counter() - t0
    four = scaling_point(256, 4)
    return knee_s, four["completed_ops_per_s"] / one["completed_ops_per_s"]


def test_engine_regression(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")  # comparable across hosts
    monkeypatch.delenv(NET_MODEL_ENV_VAR, raising=False)
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    wire_frames = _measure_fig4_wire_sweep_s("frames")
    wire_fluid = _measure_fig4_wire_sweep_s("fluid")
    disk_mech = _measure_disk_replay_s("mech")
    disk_queued = _measure_disk_replay_s("queued")
    cold_mech = _measure_disk_cold_sweep_s("mech")
    cold_queued = _measure_disk_cold_sweep_s("queued")
    replay_s, replay_events, source_events = _measure_trace_replay()
    knee_s, mgr_speedup = _measure_openloop_knee()
    fig4_frames = _measure_fig4_quick_sweep_s()
    monkeypatch.setenv(NET_MODEL_ENV_VAR, "fluid")
    fig4_fluid = _measure_fig4_quick_sweep_s()
    monkeypatch.delenv(NET_MODEL_ENV_VAR, raising=False)
    current = {
        "events_per_sec": round(_measure_events_per_sec(), 1),
        "fig4_quick_sweep_s": round(fig4_frames, 3),
        "fig4_quick_sweep_fluid_s": round(fig4_fluid, 3),
        "fig4_wire_hub_frames_s": round(wire_frames, 4),
        "fig4_wire_hub_fluid_s": round(wire_fluid, 4),
        "disk_replay_mech_s": round(disk_mech, 4),
        "disk_replay_queued_s": round(disk_queued, 4),
        "disk_cold_sweep_mech_s": round(cold_mech, 3),
        "disk_cold_sweep_queued_s": round(cold_queued, 3),
        "trace_replay_s": round(replay_s, 4),
        "openloop_knee_256_s": round(knee_s, 3),
        "mgr_shard_speedup": round(mgr_speedup, 3),
    }
    # Host-independent gate: replaying a recorded run drives the same
    # client calls the generator did, so it must not inflate the event
    # budget of the run it reproduces.
    replay_overhead = replay_events / source_events
    assert replay_overhead <= TRACE_REPLAY_EVENT_OVERHEAD, (
        f"trace replay processed {replay_overhead:.2f}x the recorded "
        f"run's events ({source_events} -> {replay_events}; ceiling "
        f"{TRACE_REPLAY_EVENT_OVERHEAD}x)"
    )
    # Host-independent gate: the fluid model's whole point is removing
    # per-frame events from the wire, so its replay must stay at least
    # FLUID_SPEEDUP_FLOOR times faster than frame-by-frame simulation.
    speedup = wire_frames / wire_fluid
    assert speedup >= FLUID_SPEEDUP_FLOOR, (
        f"fluid wire replay only {speedup:.2f}x faster than frames "
        f"(floor {FLUID_SPEEDUP_FLOOR}x)"
    )
    # Same deal one layer down: the queued disk model replaces per-run
    # process/Resource round-trips with computed batch service times.
    disk_speedup = disk_mech / disk_queued
    assert disk_speedup >= DISK_SPEEDUP_FLOOR, (
        f"queued disk replay only {disk_speedup:.2f}x faster than mech "
        f"(floor {DISK_SPEEDUP_FLOOR}x)"
    )
    # End to end, a disk-bound cold-cache sweep must come out ahead
    # too (a much weaker bar than the replay floor: the PVFS and
    # network layers dilute the disk's share of the event budget).
    assert cold_queued < cold_mech, (
        f"queued cold-cache sweep ({cold_queued:.3f}s) not faster than "
        f"mech ({cold_mech:.3f}s)"
    )
    # Host-independent gate: at the 256-node knee the single mgr is
    # the serialization point; hash-partitioning it across 4 shards
    # must move completed throughput by at least the floor.  Simulated
    # time, so the ratio is deterministic.
    assert mgr_speedup >= MGR_SHARD_SPEEDUP_FLOOR, (
        f"4 mgr shards only completed {mgr_speedup:.2f}x the single "
        f"mgr's ops/s at the 256-node open-loop knee "
        f"(floor {MGR_SHARD_SPEEDUP_FLOOR}x)"
    )
    if os.environ.get(UPDATE_ENV_VAR) or not BASELINE_PATH.exists():
        payload = {
            "comment": (
                "Engine perf baseline; refresh with "
                f"{UPDATE_ENV_VAR}=1 pytest "
                "benchmarks/test_bench_regression.py"
            ),
            **current,
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        pytest.skip(f"baseline written to {BASELINE_PATH}")
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["events_per_sec"] / REGRESSION_FACTOR
    assert current["events_per_sec"] >= floor, (
        f"event-loop throughput regressed: {current['events_per_sec']:.0f} "
        f"events/s vs baseline {baseline['events_per_sec']:.0f} "
        f"(floor {floor:.0f})"
    )
    for key, value in current.items():
        if not key.endswith("_s") or key not in baseline:
            continue  # throughput handled above; tolerate stale files
        ceiling = baseline[key] * REGRESSION_FACTOR
        assert value <= ceiling, (
            f"{key} regressed: {value:.3f}s vs baseline "
            f"{baseline[key]:.3f}s (ceiling {ceiling:.3f}s)"
        )
