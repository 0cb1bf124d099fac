"""Tests for the versioned trace IR: serialization, input checks, the
strided/list request shape, and replay determinism."""

import dataclasses
import json

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.experiments.parallel import sweep
from repro.workload.record import TraceRecorder
from repro.workload.replay import (
    TraceReplayer,
    record_microbench_trace,
    replay_trace_hash,
)
from repro.workload.runner import run_instances
from repro.workload.trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceEvent,
    TraceFormatError,
    load_path,
    loads,
    validate_trace,
)
from tests.conftest import make_cluster


def _event(**kw):
    base = dict(
        time=0.0, process="p0", path="/f", op="read", offset=0, nbytes=4096
    )
    base.update(kw)
    return TraceEvent(**base)


# -- event model -----------------------------------------------------------
def test_legacy_op_spelling_is_rejected():
    assert _event(op="sync_write").op == "sync_write"
    for op in ("sync-write", "append"):
        with pytest.raises(TraceFormatError, match="unknown op"):
            _event(op=op)
    legacy = _sample_trace().dumps().replace('"sync_write"', '"sync-write"')
    with pytest.raises(TraceFormatError, match=r"'sync-write'.*\(line 3\)"):
        loads(legacy)


def test_strided_shape_validation_and_ranges():
    e = _event(offset=1024, nbytes=4096, stride=8192, count=3)
    assert e.is_list
    assert e.ranges == [(1024, 4096), (9216, 4096), (17408, 4096)]
    assert e.total_bytes == 3 * 4096
    assert e.end_offset == 1024 + 2 * 8192 + 4096
    with pytest.raises(TraceFormatError, match="stride"):
        _event(nbytes=4096, stride=1024, count=3)  # overlapping stride
    with pytest.raises(TraceFormatError, match="count"):
        _event(count=0)
    with pytest.raises(TraceFormatError):
        _event(think_s=-1.0)


# -- serialization ---------------------------------------------------------
def _sample_trace() -> Trace:
    return Trace(
        events=[
            _event(time=0.0, op="write", app="gen", instance=1),
            _event(time=1e-3, process="p1", op="sync_write", offset=8192),
            _event(
                time=2e-3, op="read", stride=16384, count=4, think_s=5e-5
            ),
        ],
        meta={"source": "unit-test"},
    )


def test_jsonl_roundtrip_preserves_everything():
    trace = _sample_trace()
    text = trace.dumps()
    header = json.loads(text.splitlines()[0])
    assert header["format"] == TRACE_FORMAT
    assert header["version"] == TRACE_VERSION
    assert header["events"] == 3
    reloaded = loads(text)
    assert reloaded.events == trace.events
    assert reloaded.meta == trace.meta
    assert reloaded.content_hash() == trace.content_hash()
    # a second round trip is byte-identical
    assert reloaded.dumps() == text


#: ``_sample_trace().dumps()`` and its content hash as the dict-backed,
#: ``sort_keys``-serialized implementation wrote them: the slotted
#: record with pre-sorted ``to_json()`` keys must not move a byte.
GOLDEN_SAMPLE_JSONL = (
    '{"events": 3, "format": "repro-trace", "meta": {"source": '
    '"unit-test"}, "version": 2}\n'
    '{"app": "gen", "instance": 1, "nbytes": 4096, "offset": 0, "op": '
    '"write", "path": "/f", "process": "p0", "time": 0.0}\n'
    '{"nbytes": 4096, "offset": 8192, "op": "sync_write", "path": "/f", '
    '"process": "p1", "time": 0.001}\n'
    '{"count": 4, "nbytes": 4096, "offset": 0, "op": "read", "path": '
    '"/f", "process": "p0", "stride": 16384, "think_s": 5e-05, "time": '
    "0.002}\n"
)
GOLDEN_SAMPLE_HASH = "8301c05eb7134f0914499edc1dc3f119"


def test_jsonl_bytes_and_content_hash_are_pinned():
    trace = _sample_trace()
    assert trace.dumps() == GOLDEN_SAMPLE_JSONL
    assert trace.content_hash() == GOLDEN_SAMPLE_HASH
    for event in trace.events:
        keys = list(event.to_json())
        assert keys == sorted(keys)
    reloaded = loads(GOLDEN_SAMPLE_JSONL)
    assert reloaded.dumps() == GOLDEN_SAMPLE_JSONL
    assert reloaded.content_hash() == GOLDEN_SAMPLE_HASH
    # CRLF line ends and blank lines load to the same trace
    crlf = GOLDEN_SAMPLE_JSONL.replace("\n", "\r\n\r\n")
    assert loads(crlf).dumps() == GOLDEN_SAMPLE_JSONL


def test_trace_event_is_a_slotted_frozen_record():
    event = _event(app="gen")
    assert not hasattr(event, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.offset = 1
    moved = dataclasses.replace(event, offset=8192, op="sync_write")
    assert (moved.offset, moved.op, moved.app) == (8192, "sync_write", "gen")
    assert event.offset == 0
    with pytest.raises(TraceFormatError, match="unknown op"):
        dataclasses.replace(event, op="sync-write")
    with pytest.raises(TraceFormatError, match="geometry"):
        dataclasses.replace(event, offset=-1)  # replace re-validates
    assert event == _event(app="gen") and hash(event) == hash(_event(app="gen"))


def _shift(event: TraceEvent, by: int) -> TraceEvent:
    return dataclasses.replace(event, offset=event.offset + by)


def test_trace_events_pickle_through_the_parallel_sweep():
    events = _sample_trace().events
    points = [(e, 4096) for e in events]
    shifted = sweep(points, _shift, max_workers=2)
    assert shifted == sweep(points, _shift, max_workers=1)
    assert [e.offset for e in shifted] == [e.offset + 4096 for e in events]
    assert all(not hasattr(e, "__dict__") for e in shifted)


def test_loaded_strings_are_interned():
    first, _second, third = loads(GOLDEN_SAMPLE_JSONL).events
    assert first.process is third.process
    assert first.path is third.path


def test_trace_copies_its_input_and_sorts_only_when_needed():
    ordered = _sample_trace().events
    trace = Trace(events=ordered)
    assert trace.events == ordered and trace.events is not ordered
    shuffled = [ordered[2], ordered[0], ordered[1]]
    assert Trace(events=shuffled).events == ordered
    assert shuffled[0] is ordered[2]  # caller's list untouched
    # equal keys keep input order (the sort it skips is stable)
    twins = [_event(nbytes=1), _event(nbytes=2)]
    assert Trace(events=twins).events == twins
    assert Trace(events=iter(ordered)).events == ordered


def test_malformed_event_errors_carry_the_line_number():
    good = (
        '{"time": 0, "process": "p", "path": "/f", "op": "read", '
        '"offset": 0, "nbytes": 1}\n'
    )
    header = '{"format": "repro-trace", "version": 2, "events": 3}\n'
    with pytest.raises(TraceFormatError, match=r"\(line 4\)"):
        loads(header + good + "\n" + good.replace('"read"', '"evict"'))
    with pytest.raises(TraceFormatError, match=r"malformed event \(line 3\)"):
        loads(header + good + "{not json\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "empty"),
        ('{"format": "something-else", "version": 2}\n', "header"),
        (
            '{"format": "repro-trace", "version": 99, "events": 0}\n',
            "version",
        ),
        (
            '{"format": "repro-trace", "version": 2, "events": 2}\n'
            '{"time": 0, "process": "p", "path": "/f", "op": "read", '
            '"offset": 0, "nbytes": 1}\n',
            "truncated",
        ),
        (
            '{"format": "repro-trace", "version": 2, "events": 1}\n'
            '{"time": 0, "process": "p", "path": "/f", "op": "evict", '
            '"offset": 0, "nbytes": 1}\n',
            "unknown op",
        ),
        (
            '{"format": "repro-trace", "version": 2, "events": 1}\n'
            '{"time": 0, "process": "p", "path": "/f", "op": "read", '
            '"offset": -4, "nbytes": 1}\n',
            "geometry",
        ),
        (
            '{"format": "repro-trace", "version": 2, "events": 1}\n'
            "{not json\n",
            "malformed",
        ),
        (
            '{"format": "repro-trace", "version": 2, "events": 1}\n'
            '{"time": 0, "process": "p"}\n',
            "missing fields",
        ),
        # A version-1 CSV table: not JSONL, refused at its first line.
        (
            "time,process,path,op,offset,nbytes\n0.0,p0,/f,read,0,4096\n",
            r"malformed trace header: .*line 1 column 1",
        ),
        (
            '{"format": "repro-trace", "version": 1, "events": 0}\n',
            "unsupported trace version 1",
        ),
    ],
)
def test_malformed_traces_are_rejected(text, match):
    with pytest.raises(TraceFormatError, match=match):
        loads(text)


def test_validate_trace_reports_cross_event_issues():
    assert validate_trace(Trace()) == ["trace has no events"]
    clean = _sample_trace()
    assert validate_trace(clean) == []


# -- recording -------------------------------------------------------------
def test_bus_tap_records_any_run():
    cluster = make_cluster()
    recorder = TraceRecorder(cluster)
    recorder.tap()
    client = cluster.client("node0")
    client.process_name = "tapped"

    def worker(env):
        f = yield from client.open("/data")
        yield from client.write(f, 0, 8192)
        yield from client.read(f, 0, 8192)
        yield from client.sync_write(f, 0, 4096)

    env = cluster.env
    env.run(until=env.process(worker(env)))
    recorder.close()
    trace = recorder.trace(source="tap-test")
    assert trace.op_counts() == {"read": 1, "write": 1, "sync_write": 1}
    assert trace.processes == ["tapped"]
    assert trace.paths == ["/data"]
    assert trace.meta["source"] == "tap-test"


def test_run_instances_record_returns_trace():
    from repro.workload.microbench import MicroBenchParams

    config = ClusterConfig(compute_nodes=2, iod_nodes=2)
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=4096,
        iterations=4,
        partition_bytes=2 * 2**20,
    )
    outcome = run_instances(config, [params], record=True)
    assert outcome.trace is not None
    assert len(outcome.trace) == 2 * 4  # p=2 ranks x 4 iterations
    assert all(e.app == "microbench" for e in outcome.trace)
    assert outcome.trace.processes == [
        "mb-i0-r0@node0", "mb-i0-r1@node1"
    ]


def test_default_process_names_make_recordings_reproducible():
    """Unnamed clients are named by a per-node counter, so two
    identical recorded runs serialize to the same bytes."""

    def record():
        cluster = make_cluster()
        recorder = TraceRecorder(cluster)
        recorder.tap()
        clients = [cluster.client(n) for n in ("node0", "node0", "node1")]

        def worker(env, client, offset):
            f = yield from client.open("/shared")
            yield from client.write(f, offset, 4096)
            yield from client.read(f, 0, 8192)

        env = cluster.env
        env.run(until=env.all_of([
            env.process(worker(env, client, i * 4096))
            for i, client in enumerate(clients)
        ]))
        return recorder

    first, second = record(), record()  # both alive: distinct clients
    assert first.dumps() == second.dumps()
    assert first.trace().processes == ["node0/pid0", "node0/pid1", "node1/pid0"]


def test_recording_does_not_perturb_the_schedule(monkeypatch):
    """The bus tap must be schedule-neutral: a recorded run keeps the
    unrecorded run's exact BLAKE2b schedule hash, on a fig4 point and
    on a cached run of a write, a sync_write and a strided readv."""
    from repro.workload.replay import fig4_point_trace_hash
    from repro.sim.engine import TRACE_HASH_ENV_VAR
    from repro.workload.microbench import MicroBenchParams

    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=True)
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=4096,
        iterations=8,
        mode="read",
        locality=0.0,
        partition_bytes=2 * 2**20,
        seed=1234,
    )
    monkeypatch.setenv(TRACE_HASH_ENV_VAR, "1")
    outcome = run_instances(config, [params], record=True)
    recorded_hash = outcome.cluster.env.trace_hash()
    assert recorded_hash == fig4_point_trace_hash()

    def mixed_run(record):
        cluster = make_cluster(caching=True)
        recorder = TraceRecorder(cluster)
        if record:
            recorder.tap()
        writer, reader = cluster.client("node0"), cluster.client("node1")

        def worker(env):
            f = yield from writer.open("/mixed")
            yield from writer.write(f, 0, 8192)
            yield from writer.sync_write(f, 4096, 4096)
            g = yield from reader.open("/mixed")
            yield from reader.readv(
                g, [(0, 4096), (16384, 4096), (32768, 4096)]
            )

        env = cluster.env
        env.run(until=env.process(worker(env)))
        return env.trace_hash(), recorder.trace()

    unrecorded_hash, nothing = mixed_run(record=False)
    recorded_hash, trace = mixed_run(record=True)
    assert recorded_hash == unrecorded_hash
    assert len(nothing) == 0
    assert trace.op_counts() == {"write": 1, "sync_write": 1, "read": 1}
    assert [e.count for e in trace.events if e.op == "read"] == [3]


def test_recording_builds_only_the_records_it_keeps(monkeypatch):
    """The tap takes ``client_io`` alone, so on a fig4 read point (p = 2,
    d = 4 KB, 64 iterations) the services build no other record; before
    kinds were named, the tap received 396 records and dropped 268.  The
    recording and the schedule hash are the ones pinned before."""
    import collections

    from repro.svc import events
    from repro.workload.replay import _fig4_point, _trace_hashing

    built = collections.Counter()
    real = events.ServiceEvent

    def counting(**fields):
        built[fields["kind"]] += 1
        return real(**fields)

    monkeypatch.setattr(events, "ServiceEvent", counting)
    with _trace_hashing():
        outcome = run_instances(
            *_fig4_point(4096, "read", 2, 64, 1234), record=True
        )
    assert built == {"client_io": 128}
    assert len(outcome.trace) == 128
    assert outcome.trace.content_hash() == "3acfa1bc53aea20a77b1a0525173d028"
    assert outcome.cluster.env.trace_hash() == "2bcff8c8374b897619c0b43c7d9ba8ac"


# -- replay determinism (the tentpole acceptance) --------------------------
def test_recorded_run_serialize_reload_replay_is_bit_identical():
    """record -> serialize -> reload -> replay: identical schedule hash
    whether the replay consumes the original text or a reloaded and
    re-serialized copy."""
    text = record_microbench_trace()
    reloaded_text = loads(text).dumps()
    assert reloaded_text == text
    assert loads(text).content_hash() == loads(reloaded_text).content_hash()
    direct = replay_trace_hash(text)
    roundtrip = replay_trace_hash(reloaded_text)
    again = replay_trace_hash(text)
    assert direct == roundtrip == again


def test_replay_hash_identical_under_parallel_sweep():
    from repro.experiments.parallel import sweep

    text = record_microbench_trace()
    serial = replay_trace_hash(text)
    parallel = sweep([(text,), (text,)], replay_trace_hash, max_workers=2)
    assert parallel == [serial, serial]


# -- strided/list I/O end to end -------------------------------------------
def test_strided_readv_reaches_iods_as_list_requests():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")
    # Three 4 KB ranges spaced 16 KB apart: same stripe, one iod, so
    # the request must arrive as ONE multi-range message.
    ranges = [(0, 4096), (16384, 4096), (32768, 4096)]

    def worker(env):
        f = yield from client.open("/strided")
        yield from client.writev(f, ranges)
        yield from client.readv(f, ranges)

    env = cluster.env
    env.run(until=env.process(worker(env)))
    assert cluster.metrics.count("client.list_reads") == 1
    assert cluster.metrics.count("client.list_writes") == 1
    assert cluster.metrics.count("iod.list_requests") >= 2


def test_strided_trace_event_replays_through_client_to_iods():
    """A count>1 IR event must reach the iods as list requests."""
    source = make_cluster(caching=False)
    recorder = TraceRecorder(source)
    recorder.tap()
    client = source.client("node0")
    client.process_name = "strided-app"

    def worker(env):
        f = yield from client.open("/strided")
        yield from client.writev(f, [(0, 4096), (16384, 4096)])
        yield from client.readv(
            f, [(0, 4096), (16384, 4096), (32768, 4096)]
        )

    env = source.env
    env.run(until=env.process(worker(env)))
    recorder.close()
    trace = loads(recorder.trace().dumps())
    strided = [e for e in trace.events if e.is_list]
    assert len(strided) == 2
    assert {e.count for e in strided} == {2, 3}

    target = make_cluster(caching=False)
    TraceReplayer(target, trace, preserve_timing=False).run()
    assert target.metrics.count("client.list_reads") == 1
    assert target.metrics.count("client.list_writes") == 1
    assert target.metrics.count("iod.list_requests") >= 2


def test_readv_writev_carry_real_bytes():
    cluster = make_cluster(caching=False)
    client = cluster.client("node0")
    ranges = [(0, 4096), (65536 + 512, 4096)]  # spans both iods
    chunks = [b"a" * 4096, b"b" * 4096]

    def worker(env):
        f = yield from client.open("/bytes")
        yield from client.writev(f, ranges, data=chunks)
        parts = yield from client.readv(f, ranges, want_data=True)
        return parts

    env = cluster.env
    parts = env.run(until=env.process(worker(env)))
    assert parts == chunks


# -- replaying a recording from disk ---------------------------------------
def test_trace_source_seam_replays_instead_of_synthetic(tmp_path):
    """A recorded microbench trace written to disk and replayed
    end-to-end, closed-loop, by the TraceReplayer, the one replay
    path since the config's trace source went (DESIGN.md A.12)."""
    text = record_microbench_trace(iterations=4)
    path = tmp_path / "run.jsonl"
    path.write_text(text)

    trace = load_path(str(path))
    assert trace.content_hash() == loads(text).content_hash()
    cluster = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=2))
    replayer = TraceReplayer(cluster, trace, preserve_timing=False)
    assert replayer.run() > 0
    # both ranks replayed
    assert len(replayer.completion) == 2
    assert cluster.metrics.counters["client.reads"] == len(trace)


def test_replay_event_budget_is_deterministic_and_bounded():
    """Replaying a recorded run drives the client calls the generator
    did, so it may not inflate the event budget of the run it
    reproduces (ceiling 1.5x), and repeats process the same events."""
    from repro.workload.microbench import MicroBenchParams

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
    recorded = outcome.cluster.env.sched_stats()["events_processed"]
    assert len(outcome.trace) == 2 * 64

    def replay() -> int:
        cluster = make_cluster()
        TraceReplayer(cluster, outcome.trace, preserve_timing=False).run()
        return cluster.env.sched_stats()["events_processed"]

    replays = {replay() for _ in range(3)}
    assert len(replays) == 1, replays
    assert replays.pop() <= 1.5 * recorded
