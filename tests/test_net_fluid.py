"""Fluid network model: timer primitive, equivalence, fairness, stats.

The fluid model's contract (DESIGN.md §12) is validated empirically
here against the frame models it replaces:

* scenario **makespans** (time the last flow completes) agree to well
  under 1%, because both models conserve bytes and link capacity;
* **per-flow** completion times agree within a scenario-dependent
  tolerance — exact for uncontended flows, up to ~20% for equal-size
  contenders and ~35% for mixed sizes, where FIFO frame interleaving
  and max-min sharing legitimately order completions differently.
"""

from __future__ import annotations

import pytest

from repro.analysis.determinism import fig4_point_trace_hash
from repro.cluster.cluster import Cluster
from repro.cluster.config import (
    NET_MODEL_ENV_VAR,
    ClusterConfig,
    CostModel,
)
from repro.net import (
    FluidFabric,
    Network,
    SharedHubFabric,
    SwitchedFabric,
)
from repro.net.fluid import MODES
from repro.sim import Environment, Timeout

MB = 2**20
BW = 100e6
#: Base latency used by every fabric in these tests (the default).
LAT = 100e-6


def _wire_s(nbytes: int) -> float:
    return max(nbytes, 1) * 8.0 / BW


def _frames_fabric(env: Environment, mode: str):
    return SharedHubFabric(env) if mode == "hub" else SwitchedFabric(env)


def _run_flows(fabric, flows):
    """Run ``[(start_s, src, dst, size), ...]``; per-flow finish times."""
    env = fabric.env
    finish: dict[int, float] = {}

    def one(i, start, src, dst, size):
        if start:
            yield env.timeout(start)
        yield from fabric.transmit(src, dst, size)
        finish[i] = env.now

    for i, flow in enumerate(flows):
        env.process(one(i, *flow))
    env.run()
    assert len(finish) == len(flows)
    return [finish[i] for i in range(len(flows))]


# ---------------------------------------------------------------------------
# Timer primitive (sim/events.py)
# ---------------------------------------------------------------------------


def test_timer_starts_idle_and_fires_once():
    env = Environment()
    fired = []
    timer = env.timer(lambda t: fired.append(env.now))
    assert not timer.armed
    timer.arm(5.0)
    assert timer.armed and timer.deadline == 5.0
    env.run()
    assert fired == [5.0]
    assert not timer.armed


def test_timer_cancel_suppresses_fire():
    env = Environment()
    fired = []
    timer = env.timer(lambda t: fired.append(env.now))
    timer.arm(5.0)
    timer.cancel()
    timer.cancel()  # idempotent
    env.run()
    assert fired == []


def test_timer_rearm_supersedes_without_new_event():
    env = Environment()
    fired = []
    timer = env.timer(lambda t: fired.append(env.now))
    timer.arm(10.0)
    timer.arm(3.0)  # earlier deadline wins
    env.run()
    assert fired == [3.0]


def test_timer_rearm_later_discards_stale_entry():
    env = Environment()
    fired = []
    timer = env.timer(lambda t: fired.append(env.now))
    timer.arm(2.0)
    timer.arm_at(7.0)
    env.run()
    assert fired == [7.0]


def test_timer_cancel_then_rearm_same_instant_reuses_entry():
    env = Environment()
    fired = []
    timer = env.timer(lambda t: fired.append(env.now))
    timer.arm_at(4.0)
    timer.cancel()
    timer.arm_at(4.0)
    env.run()
    assert fired == [4.0]


def test_timer_rearm_from_inside_on_fire():
    env = Environment()
    fired = []

    def on_fire(timer):
        fired.append(env.now)
        if len(fired) < 3:
            timer.arm(1.0)

    env.timer(on_fire).arm(1.0)
    env.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_rejects_negative_delay_and_past_deadline():
    env = Environment()
    timer = env.timer(lambda t: None)
    with pytest.raises(ValueError):
        timer.arm(-1.0)
    Timeout(env, 5.0)
    env.run()
    assert env.now == 5.0
    with pytest.raises(ValueError):
        timer.arm_at(1.0)


def test_timer_tie_break_is_schedule_order():
    """A timer and a timeout at the same instant fire in arm order."""
    env = Environment()
    order = []
    timer = env.timer(lambda t: order.append("timer"))
    timer.arm(5.0)
    Timeout(env, 5.0).callbacks.append(lambda _ev: order.append("timeout"))
    env.run()
    assert order == ["timer", "timeout"]


# ---------------------------------------------------------------------------
# Fluid fabric basics
# ---------------------------------------------------------------------------


def test_fluid_validation():
    env = Environment()
    with pytest.raises(ValueError):
        FluidFabric(env, mode="token-ring")
    with pytest.raises(ValueError):
        FluidFabric(env, bandwidth_bps=0)
    with pytest.raises(ValueError):
        FluidFabric(env, frame_bytes=0)


def test_fluid_negative_size_rejected():
    env = Environment()
    fab = FluidFabric(env)

    def proc(env):
        yield from fab.transmit("a", "b", -1)

    p = env.process(proc(env))
    env.run()
    assert not p.ok and isinstance(p.value, ValueError)


@pytest.mark.parametrize("mode", MODES)
def test_fluid_single_flow_matches_unloaded_formula(mode):
    env = Environment()
    fab = FluidFabric(env, mode=mode)
    (finish,) = _run_flows(fab, [(0, "a", "b", MB)])
    assert finish == pytest.approx(fab.transfer_time_unloaded(MB), rel=1e-9)


def test_fluid_disjoint_pairs_contend_on_hub_not_switch():
    for mode, factor in (("hub", 2.0), ("switch", 1.0)):
        env = Environment()
        fab = FluidFabric(env, mode=mode)
        finish = _run_flows(fab, [(0, "a", "b", MB), (0, "c", "d", MB)])
        expected = factor * _wire_s(MB) + LAT
        assert max(finish) == pytest.approx(expected, rel=0.01)


# ---------------------------------------------------------------------------
# Equivalence: fluid vs frames, per scenario (DESIGN.md §12 tolerances)
# ---------------------------------------------------------------------------

#: (name, flows, per-flow tolerance).  Makespan tolerance is always
#: MAKESPAN_TOL; the per-flow bound is scenario-dependent because FIFO
#: frame interleaving and max-min sharing order completions
#: differently under contention (documented in DESIGN.md §12).
EQUIVALENCE_SCENARIOS = [
    ("single-1MB", [(0, "a", "b", MB)], 1e-6),
    ("single-64KB", [(0, "a", "b", 65536)], 1e-6),
    ("single-0B", [(0, "a", "b", 0)], 1e-6),
    ("single-frame-multiple", [(0, "a", "b", 4 * 65536)], 1e-6),
    ("pair-1MB", [(0, "a", "b", MB), (0, "c", "d", MB)], 0.05),
    (
        "four-equal",
        [(0, f"s{i}", f"r{i}", 262144) for i in range(4)],
        0.20,
    ),
    (
        "fan-in",
        [(0, f"s{i}", "sink", 262144) for i in range(4)],
        0.20,
    ),
    (
        "mixed-sizes",
        [(0, "a", "b", MB), (0, "c", "d", 65536), (0, "e", "f", 262144)],
        0.35,
    ),
    (
        "staggered",
        [(0, "a", "b", MB), (0.02, "c", "d", MB), (0.04, "e", "f", MB)],
        0.05,
    ),
]

MAKESPAN_TOL = 0.005


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "name,flows,flow_tol",
    EQUIVALENCE_SCENARIOS,
    ids=[s[0] for s in EQUIVALENCE_SCENARIOS],
)
def test_fluid_matches_frames_per_scenario(mode, name, flows, flow_tol):
    frames = _run_flows(_frames_fabric(Environment(), mode), flows)
    fluid = _run_flows(FluidFabric(Environment(), mode=mode), flows)
    assert max(fluid) == pytest.approx(max(frames), rel=MAKESPAN_TOL), (
        f"{mode}/{name}: makespan diverged"
    )
    for i, (a, b) in enumerate(zip(frames, fluid)):
        # Symmetric relative difference (|a-b| / max), the measure the
        # documented tolerances use; base latency absorbs tiny flows.
        rel = abs(a - b) / max(a, b)
        assert rel <= flow_tol or abs(a - b) <= LAT, (
            f"{mode}/{name}: flow {i} completed at {b} (frames: {a}, "
            f"rel diff {rel:.3f} > {flow_tol})"
        )


# ---------------------------------------------------------------------------
# Fairness: N concurrent flows each get ~1/N of the wire
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("model", ["frames", "fluid"])
def test_hub_fair_share(model, n):
    """N equal hub flows each sustain ~C/N (both contention models)."""
    env = Environment()
    fab = (
        SharedHubFabric(env)
        if model == "frames"
        else FluidFabric(env, mode="hub")
    )
    size = 262144
    finish = _run_flows(fab, [(0, f"s{i}", f"r{i}", size) for i in range(n)])
    solo = _wire_s(size)
    for t in finish:
        # Finishing by ~n*solo means the flow averaged >= C/n; no flow
        # may be starved below its fair share (beyond one frame skew).
        throughput = size * 8 / (t - LAT)
        assert throughput >= (BW / n) * 0.95, (
            f"flow got {throughput / 1e6:.1f} Mbps, fair share is "
            f"{BW / n / 1e6:.1f} Mbps"
        )
    assert max(finish) == pytest.approx(n * solo + LAT, rel=0.02)


def test_fluid_switch_fan_in_splits_receiver_port():
    env = Environment()
    fab = FluidFabric(env, mode="switch")
    finish = _run_flows(
        fab, [(0, f"s{i}", "sink", 262144) for i in range(4)]
    )
    # All four share sink's RX link equally: each gets 25 Mbps.
    expected = 4 * _wire_s(262144) + LAT
    for t in finish:
        assert t == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# Edge cases shared by both models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model", ["frames", "fluid"])
@pytest.mark.parametrize("size", [0, 1, 65536, 4 * 65536, MB + 1])
def test_unloaded_formula_matches_actual_idle_transfer(model, mode, size):
    """``transfer_time_unloaded`` is exact for what transmit charges.

    Covers the satellite fix: the frame models' formula previously
    ignored per-frame framing, undercharging zero-byte messages (which
    still pay one minimum-size frame on the wire).
    """
    env = Environment()
    fab = (
        _frames_fabric(env, mode)
        if model == "frames"
        else FluidFabric(env, mode=mode)
    )
    (finish,) = _run_flows(fab, [(0, "a", "b", size)])
    assert finish == pytest.approx(
        fab.transfer_time_unloaded(size), rel=1e-9
    )


def test_zero_byte_message_still_occupies_wire():
    """Two zero-byte hub messages serialise their framing charges."""
    for fab in (
        SharedHubFabric(Environment()),
        FluidFabric(Environment(), mode="hub"),
    ):
        finish = _run_flows(fab, [(0, "a", "b", 0), (0, "c", "d", 0)])
        assert max(finish) == pytest.approx(2 * _wire_s(1) + LAT, rel=1e-6)


def test_fluid_accounting_counts_requested_bytes():
    env = Environment()
    fab = FluidFabric(env, mode="hub")
    _run_flows(fab, [(0, "a", "b", 2500), (0, "c", "d", 0)])
    assert fab.bytes_transferred == 2500
    assert fab.flows_completed == 2
    assert fab.active_flows == 0


# ---------------------------------------------------------------------------
# Determinism: trace hash stable per net model
# ---------------------------------------------------------------------------


def test_trace_hash_stable_per_net_model(monkeypatch):
    hashes = {}
    for model in ("frames", "fluid"):
        monkeypatch.setenv(NET_MODEL_ENV_VAR, model)
        first = fig4_point_trace_hash(seed=4242)
        again = fig4_point_trace_hash(seed=4242)
        assert first == again, f"{model} schedule is not reproducible"
        hashes[model] = first
    # The knob must actually select different models.
    assert hashes["frames"] != hashes["fluid"]


def test_frames_hash_ignores_fluid_availability(monkeypatch):
    """Leaving the knob unset is exactly the frames model."""
    monkeypatch.delenv(NET_MODEL_ENV_VAR, raising=False)
    default = fig4_point_trace_hash(seed=99)
    monkeypatch.setenv(NET_MODEL_ENV_VAR, "frames")
    assert fig4_point_trace_hash(seed=99) == default


# ---------------------------------------------------------------------------
# Model selection plumbing
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_net_model():
    with pytest.raises(ValueError):
        ClusterConfig(net_model="carrier-pigeon")


def test_resolved_net_model_precedence(monkeypatch):
    monkeypatch.delenv(NET_MODEL_ENV_VAR, raising=False)
    assert ClusterConfig().resolved_net_model == "frames"
    monkeypatch.setenv(NET_MODEL_ENV_VAR, "fluid")
    assert ClusterConfig().resolved_net_model == "fluid"
    # An explicit config wins over the environment.
    assert ClusterConfig(net_model="frames").resolved_net_model == "frames"
    monkeypatch.setenv(NET_MODEL_ENV_VAR, "smoke-signals")
    with pytest.raises(ValueError):
        ClusterConfig().resolved_net_model


@pytest.mark.parametrize("fabric", ["hub", "switch"])
def test_cluster_builds_fluid_fabric(monkeypatch, fabric):
    monkeypatch.delenv(NET_MODEL_ENV_VAR, raising=False)
    config = ClusterConfig(
        net_model="fluid", costs=CostModel(fabric=fabric)
    )
    cluster = Cluster(config)
    assert isinstance(cluster.network.fabric, FluidFabric)
    assert cluster.network.fabric.mode == fabric
    assert cluster.net_model == "fluid"


# ---------------------------------------------------------------------------
# Contention stats: snapshots, Metrics, svc bus
# ---------------------------------------------------------------------------


def test_hub_stats_snapshot_and_busy_time():
    env = Environment()
    fab = SharedHubFabric(env)
    _run_flows(fab, [(0, "a", "b", 65536)])
    snap = fab.stats_snapshot()
    assert snap["model"] == "frames-hub"
    assert snap["bytes_transferred"] == 65536
    assert snap["frames_transferred"] == 1
    assert snap["wire_busy_s"] == pytest.approx(_wire_s(65536))


def test_fluid_stats_snapshot_tracks_contention():
    env = Environment()
    fab = FluidFabric(env, mode="hub")
    seen = {}

    def probe(env):
        yield env.timeout(0.001)
        seen["active"] = fab.active_flows
        seen["queue"] = fab.utilization_queue

    env.process(probe(env))
    _run_flows(fab, [(0, "a", "b", MB), (0, "c", "d", MB)])
    assert seen == {"active": 2, "queue": 1}
    snap = fab.stats_snapshot()
    assert snap["model"] == "fluid-hub"
    assert snap["flows_started"] == snap["flows_completed"] == 2
    assert snap["peak_active_flows"] == 2
    assert snap["active_flows"] == 0
    # Two equal flows share the wire for their combined volume.
    assert snap["wire_busy_s"] == pytest.approx(2 * _wire_s(MB), rel=1e-6)


@pytest.mark.parametrize("model", ["frames", "fluid"])
def test_network_saturation_reaches_metrics_and_bus(model):
    from repro.svc.events import get_bus
    from repro.workload import MicroBenchmark, MicroBenchParams
    from tests.conftest import make_cluster

    cluster = make_cluster(net_model=model)
    bus = get_bus(cluster.env)
    cluster.network.attach_bus(bus)
    params = MicroBenchParams(
        nodes=cluster.config.compute_node_names(),
        request_size=65536,
        iterations=4,
        mode="write",
        locality=0.0,
        partition_bytes=MB,
    )
    procs = MicroBenchmark(params).spawn(cluster)
    cluster.env.run(until=cluster.env.all_of(procs))
    snap = cluster.record_network_metrics()
    assert snap["messages_delivered"] > 0
    # record_network_metrics folded the snapshot into net.* counters.
    assert cluster.metrics.counters["net.messages_delivered"] > 0
    assert cluster.metrics.counters["net.bytes_transferred"] > 0
    # The bus row mirrors delivery totals and wire-busy time.
    stats = bus.stats["network"]
    assert stats.messages_handled == snap["messages_delivered"]
    assert stats.busy_s == pytest.approx(snap["wire_busy_s"])


# ---------------------------------------------------------------------------
# Event budget: what the fluid model is for
# ---------------------------------------------------------------------------


def _fig4_hub_wire_replay(net_model: str) -> tuple[int, float]:
    """Fig 4's transfer pattern (p=4 senders, 32 back-to-back messages
    per request size) through the shared hub alone: (events, makespan)."""
    from repro.net.message import Message

    env = Environment()
    fabric = (
        FluidFabric(env, mode="hub")
        if net_model == "fluid"
        else SharedHubFabric(env)
    )
    net = Network(env, fabric=fabric)
    inboxes = [net.register(f"rx{i}", 1) for i in range(4)]

    def stream(i):
        for size in (4096, 65536, 262144, 1048576):
            for _ in range(32):
                message = Message(
                    kind="data", size_bytes=size, src=f"tx{i}", dst=f"rx{i}"
                )
                yield net.deliver(message, inboxes[i])
                yield inboxes[i].get()

    for i in range(4):
        env.process(stream(i))
    env.run()
    assert net.messages_delivered == 4 * 4 * 32
    return env.sched_stats()["events_processed"], env.now


def test_fluid_halves_the_event_budget_of_the_fig4_hub_replay():
    """Removing per-frame events is the fluid model's whole point: it
    must replay the wire in at most half the frame model's events
    (8 968 vs 2 568, 3.49x, when written) and land on the same
    makespan (14.1456 vs 14.1502 s)."""
    frames_events, frames_makespan = _fig4_hub_wire_replay("frames")
    fluid_events, fluid_makespan = _fig4_hub_wire_replay("fluid")
    assert frames_events >= 2 * fluid_events, (frames_events, fluid_events)
    assert fluid_makespan == pytest.approx(frames_makespan, rel=1e-3)
