"""Tests for the sharing-pattern classifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import Trace, TraceEvent, TraceRecorder
from repro.workload.classify import (
    PATTERNS,
    RECOMMENDATIONS,
    AccessRecord,
    SharingClassifier,
    classify_trace,
)
from tests.conftest import make_cluster


def _r(t, proc, file_id, block, op):
    return AccessRecord(time=t, process=proc, file_id=file_id, block_no=block, op=op)


def test_record_validation():
    with pytest.raises(ValueError):
        _r(0, "p", 1, 0, "append")


def test_unused_file():
    c = SharingClassifier()
    assert c.classify(42) == "unused"
    assert c.recommendation(42) == RECOMMENDATIONS["unused"]


def test_private_pattern():
    c = SharingClassifier()
    c.observe([_r(i, "p1", 1, i, "read") for i in range(5)])
    c.record(_r(9, "p1", 1, 0, "write"))
    assert c.classify(1) == "private"


def test_read_shared_pattern():
    c = SharingClassifier()
    c.observe([_r(i, "p1", 1, i, "read") for i in range(5)])
    c.observe([_r(10 + i, "p2", 1, i, "read") for i in range(5)])
    assert c.classify(1) == "read-shared"


def test_disjoint_readers():
    c = SharingClassifier()
    c.observe([_r(i, "p1", 1, i, "read") for i in range(5)])
    c.observe([_r(i, "p2", 1, 100 + i, "read") for i in range(5)])
    assert c.classify(1) == "disjoint"


def test_producer_consumer_pattern():
    c = SharingClassifier()
    c.observe([_r(i, "writer", 1, i, "write") for i in range(5)])
    c.observe([_r(10 + i, "reader", 1, i, "read") for i in range(5)])
    assert c.classify(1) == "producer-consumer"


def test_multiple_writers_is_rw_shared():
    c = SharingClassifier()
    c.record(_r(0, "p1", 1, 0, "write"))
    c.record(_r(1, "p2", 1, 0, "write"))
    assert c.classify(1) == "read-write-shared"


def test_disjoint_writers():
    c = SharingClassifier()
    c.observe([_r(i, "p1", 1, i, "write") for i in range(3)])
    c.observe([_r(i, "p2", 1, 50 + i, "write") for i in range(3)])
    assert c.classify(1) == "disjoint"


def test_per_file_isolation():
    c = SharingClassifier()
    c.record(_r(0, "p1", 1, 0, "read"))
    c.record(_r(0, "p1", 2, 0, "write"))
    c.record(_r(1, "p2", 2, 0, "read"))
    report = c.report()
    assert report[1] == "private"
    assert report[2] == "producer-consumer"


def test_processes_of():
    c = SharingClassifier()
    c.record(_r(0, "a", 1, 0, "read"))
    c.record(_r(0, "b", 1, 1, "write"))
    assert c.processes_of(1) == {"a", "b"}


def test_all_patterns_have_recommendations():
    assert set(RECOMMENDATIONS) == set(PATTERNS)


@settings(max_examples=100)
@given(
    records=st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.sampled_from(["p1", "p2", "p3"]),
            st.integers(1, 2),
            st.integers(0, 8),
            st.sampled_from(["read", "write"]),
        ),
        max_size=30,
    )
)
def test_property_classification_total_and_stable(records):
    """Any trace classifies into a known pattern, deterministically."""
    recs = [
        _r(t, p, f, b, op) for t, p, f, b, op in sorted(records, key=lambda r: r[0])
    ]
    c1, c2 = SharingClassifier(), SharingClassifier()
    c1.observe(recs)
    c2.observe(recs)
    for f in (1, 2):
        assert c1.classify(f) in PATTERNS
        assert c1.classify(f) == c2.classify(f)


# -- classify_trace over recorded client I/O --------------------------------


def test_classify_trace_block_expansion():
    """A request covers every 4 KB block it touches; a zero-byte one
    touches none."""
    trace = Trace(events=[
        TraceEvent(0.0, "p1", "/f", "read", 1000, 8000),  # blocks 0..2
        TraceEvent(1.0, "p2", "/f", "write", 8192, 1),  # block 2
        TraceEvent(1.0, "p2", "/g", "write", 8191, 1),  # block 1
        TraceEvent(2.0, "p1", "/g", "read", 8192, 4096),  # block 2
        TraceEvent(0.0, "p1", "/empty", "read", 0, 0),
    ])
    assert classify_trace(trace) == {
        "/f": "read-write-shared", "/g": "disjoint", "/empty": "unused",
    }


def test_client_trace_hook_end_to_end():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    recorder = TraceRecorder(cluster)
    recorder.tap()
    writer = cluster.client("node0")
    reader = cluster.client("node1")
    writer.process_name = "writer"
    reader.process_name = "reader"

    def app(env):
        f = yield from writer.open("/produced")
        yield from writer.write(f, 0, 16384, None)
        yield from cluster.drain_caches()
        yield from reader.read(f, 0, 16384)

    cluster.env.run(until=cluster.env.process(app(cluster.env)))
    assert classify_trace(recorder.trace()) == {"/produced": "producer-consumer"}
