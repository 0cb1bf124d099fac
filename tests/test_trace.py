"""Tests for trace recording, serialisation, and replay."""

import io

import pytest

from repro.workload.trace import (
    TraceEvent,
    TraceRecorder,
    TraceReplayer,
    load,
    loads,
)
from tests.conftest import make_cluster


def test_trace_event_validation():
    with pytest.raises(ValueError):
        TraceEvent(0, "p", "/f", "append", 0, 1)
    with pytest.raises(ValueError):
        TraceEvent(0, "p", "/f", "read", -1, 1)


def _record_small_run():
    cluster = make_cluster(caching=True)
    recorder = TraceRecorder(cluster)
    a = recorder.attach(cluster.client("node0"), "app-a")
    b = recorder.attach(cluster.client("node1"), "app-b")

    def worker(env, client, path):
        f = yield from client.open(path)
        yield from client.write(f, 0, 8192, None)
        yield from client.read(f, 0, 8192)
        yield from client.read(f, 4096, 4096)

    env = cluster.env
    procs = [
        env.process(worker(env, a, "/shared")),
        env.process(worker(env, b, "/shared")),
    ]
    env.run(until=env.all_of(procs))
    return cluster, recorder


def test_recorder_captures_all_calls():
    _, recorder = _record_small_run()
    assert len(recorder.events) == 6  # 3 calls x 2 processes
    assert {e.process for e in recorder.events} == {"app-a", "app-b"}
    assert all(e.path == "/shared" for e in recorder.events)
    ops = sorted(e.op for e in recorder.events)
    assert ops.count("write") == 2
    assert ops.count("read") == 4


def test_csv_roundtrip():
    _, recorder = _record_small_run()
    text = recorder.dumps()
    events = loads(text).events
    assert len(events) == len(recorder.events)
    original = sorted(recorder.events, key=lambda e: e.time)
    for got, want in zip(events, original):
        assert got.time == pytest.approx(want.time, abs=1e-8)
        assert (got.process, got.path, got.op, got.offset, got.nbytes) == (
            want.process, want.path, want.op, want.offset, want.nbytes
        )


def test_load_trace_rejects_bad_header():
    with pytest.raises(ValueError, match="columns"):
        load(io.StringIO("a,b\n1,2\n"))


def test_replay_runs_same_workload_elsewhere():
    _, recorder = _record_small_run()
    events = loads(recorder.dumps()).events
    target = make_cluster(caching=False)
    replayer = TraceReplayer(target, events)
    makespan = replayer.run()
    assert makespan > 0
    assert set(replayer.completion) == {"app-a", "app-b"}
    # the replayed requests really hit the target cluster
    assert target.metrics.count("client.reads") == 4
    assert target.metrics.count("client.writes") == 2


def test_replay_placement_control_and_validation():
    _, recorder = _record_small_run()
    events = recorder.events
    target = make_cluster()
    replayer = TraceReplayer(
        target, events, placement={"app-a": "node0", "app-b": "node0"}
    )
    assert replayer.placement["app-b"] == "node0"
    with pytest.raises(ValueError, match="no placement"):
        TraceReplayer(target, events, placement={"app-a": "node0"})


def test_replay_closed_loop_faster_than_open_loop():
    """An open-loop replay keeps the original gaps; closed-loop
    compresses them."""
    cluster = make_cluster()
    recorder = TraceRecorder(cluster)
    client = recorder.attach(cluster.client("node0"), "slow-app")

    def worker(env):
        f = yield from client.open("/f")
        for i in range(3):
            yield from client.read(f, i * 4096, 4096)
            yield env.timeout(0.05)  # long pauses between requests

    env = cluster.env
    proc = env.process(worker(env))
    env.run(until=proc)

    open_loop = TraceReplayer(
        make_cluster(), recorder.events, preserve_timing=True
    ).run()
    closed_loop = TraceReplayer(
        make_cluster(), recorder.events, preserve_timing=False
    ).run()
    assert closed_loop < open_loop / 2


def test_replay_comparing_policies_on_identical_workload():
    """The intended use: same trace, caching on vs off."""
    _, recorder = _record_small_run()
    events = loads(recorder.dumps()).events
    with_cache = TraceReplayer(
        make_cluster(caching=True), events, preserve_timing=False
    ).run()
    without = TraceReplayer(
        make_cluster(caching=False), events, preserve_timing=False
    ).run()
    # the trace re-reads written data: caching must win
    assert with_cache < without
