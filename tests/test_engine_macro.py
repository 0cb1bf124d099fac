"""The macro-event read fast path (DESIGN.md §14).

Off (the default) the schedule is the validated event-level one —
bit-identical trace hashes.  On, a fully-cache-resident uncontended
read collapses into a single scheduled event but must take the same
simulated time and mirror the per-segment cache counters, so the
figure-level hit/latency numbers stay comparable across the seam.
"""

import pytest

from repro.analysis.determinism import fig4_point_trace_hash
from repro.cluster.cluster import Cluster
from repro.cluster.config import ENGINE_MACRO_ENV_VAR, ClusterConfig

N_READS = 400
READ_BYTES = 4096
REGION = 128 * 1024


def _hit_burst_replay(engine_macro: bool) -> dict:
    """Write a resident region, re-read it in full-hit requests."""
    cluster = Cluster(
        ClusterConfig(compute_nodes=1, iod_nodes=1, engine_macro=engine_macro)
    )
    env = cluster.env
    client = cluster.client("node0")

    def setup(env):
        handle = yield from client.open("/hot")
        yield from client.write(handle, 0, REGION)
        return handle

    setup_proc = env.process(setup(env))
    env.run(until=setup_proc)
    handle = setup_proc.value

    def reader(env):
        data = []
        for i in range(N_READS):
            buf = yield from client.read(
                handle,
                (i * READ_BYTES) % REGION,
                READ_BYTES,
                want_data=True,
            )
            data.append(buf)
        return data

    events_before = env.sched_stats()["events_processed"]
    read_proc = env.process(reader(env))
    env.run(until=read_proc)
    stats = env.sched_stats()
    counters = cluster.metrics.counters
    return {
        "makespan": env.now,
        "data": read_proc.value,
        "events": stats["events_processed"] - events_before,
        "bursts": stats["bursts_coalesced"],
        "hits": counters.get("cache.hits", 0),
        "read_requests": counters.get("cache.read_requests", 0),
        "read_segments": counters.get("cache.read_segments", 0),
        "fully_hit_segments": counters.get("cache.fully_hit_segments", 0),
        "macro_reads": counters.get("cache.macro_reads", 0),
    }


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENGINE_MACRO_ENV_VAR, raising=False)


def test_macro_matches_event_level_on_hit_bursts():
    off = _hit_burst_replay(engine_macro=False)
    on = _hit_burst_replay(engine_macro=True)
    # Identical simulated outcome: the single macro timeout charges
    # exactly the compute the event-level train accrues.  Summing n
    # per-segment timeouts vs one multiplied total differs only by
    # float associativity, so allow ulp-level drift.
    assert on["makespan"] == pytest.approx(off["makespan"], abs=1e-12)
    assert on["data"] == off["data"]
    # Mirrored counters, so hit-ratio figures agree across the seam.
    for key in (
        "hits",
        "read_requests",
        "read_segments",
        "fully_hit_segments",
    ):
        assert on[key] == off[key], key
    # But far fewer events — the whole point of the fast path.
    assert on["macro_reads"] == N_READS
    assert on["bursts"] == N_READS
    assert off["macro_reads"] == 0
    assert off["bursts"] == 0
    # (1231 vs 432: three timeouts per event-level hit read — syscall,
    # lookup, copy — against one; 5.6x while each compute also cost a
    # grant event.)
    assert off["events"] / on["events"] >= 2.8


def test_macro_off_is_the_default_validated_schedule(monkeypatch):
    monkeypatch.delenv(ENGINE_MACRO_ENV_VAR, raising=False)
    baseline = fig4_point_trace_hash(seed=4242)
    explicit_off = fig4_point_trace_hash(seed=4242)
    assert baseline == explicit_off
    # The macro schedule is itself reproducible run to run.
    monkeypatch.setenv(ENGINE_MACRO_ENV_VAR, "1")
    first = fig4_point_trace_hash(seed=4242)
    again = fig4_point_trace_hash(seed=4242)
    assert first == again


def test_resolved_engine_macro_precedence(monkeypatch):
    monkeypatch.delenv(ENGINE_MACRO_ENV_VAR, raising=False)
    assert ClusterConfig().resolved_engine_macro is False
    monkeypatch.setenv(ENGINE_MACRO_ENV_VAR, "1")
    assert ClusterConfig().resolved_engine_macro is True
    monkeypatch.setenv(ENGINE_MACRO_ENV_VAR, "0")
    assert ClusterConfig().resolved_engine_macro is False
    # An explicit config wins over the environment.
    monkeypatch.setenv(ENGINE_MACRO_ENV_VAR, "1")
    assert ClusterConfig(engine_macro=False).resolved_engine_macro is False
    monkeypatch.delenv(ENGINE_MACRO_ENV_VAR, raising=False)
    assert ClusterConfig(engine_macro=True).resolved_engine_macro is True


def test_cluster_plumbs_the_flag_to_cache_modules(monkeypatch):
    monkeypatch.delenv(ENGINE_MACRO_ENV_VAR, raising=False)
    on = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=1, engine_macro=True))
    assert on.engine_macro is True
    assert all(m.engine_macro for m in on.cache_modules.values())
    off = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=1))
    assert off.engine_macro is False
    assert not any(m.engine_macro for m in off.cache_modules.values())
