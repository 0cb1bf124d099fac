"""The sharded metadata service: routing, placement, determinism.

The contract has three parts: (1) path → shard routing is a pure
function of the path bytes (never Python's seeded ``hash``), (2) a
file's owning shard is recoverable from its id alone, and (3) one
shard is *exactly* the paper's single mgr — same label, same id
sequence, bit-identical schedule hashes.
"""

import pytest

from repro.analysis.reset import reset_all
from repro.cluster.cluster import Cluster
from repro.cluster.config import (
    MGR_SHARDS_ENV_VAR,
    CacheConfig,
    ClusterConfig,
)
from repro.pvfs import protocol
from repro.sim import Environment
from repro.workload.replay import TraceReplayer
from repro.workload.trace import Trace, TraceEvent
from tests.conftest import make_cluster, run_app


def make_trace(procs: int = 4, events_per: int = 6) -> Trace:
    """A small deterministic multi-process workload with sharing."""
    events = []
    for i in range(procs):
        process = f"app-{i:02d}"
        for j in range(events_per):
            t = (j * procs + i) * 1e-4
            if j % 3 == 2:
                events.append(
                    TraceEvent(
                        time=t,
                        process=process,
                        path="/shared",
                        op="write",
                        offset=((i * events_per + j) % 8) * 4096,
                        nbytes=4096,
                    )
                )
            else:
                events.append(
                    TraceEvent(
                        time=t,
                        process=process,
                        path="/shared",
                        op="read",
                        offset=((j * 7 + i) % 16) * 4096,
                        nbytes=8192,
                    )
                )
    return Trace(events=events)


def small_config(**overrides) -> ClusterConfig:
    return ClusterConfig(
        compute_nodes=4,
        iod_nodes=4,
        caching=True,
        cache=CacheConfig(size_bytes=64 * 4096),
        **overrides,
    )


def replay_hash(config: ClusterConfig, trace: Trace) -> str:
    """Schedule hash of a serial closed-loop replay of ``trace``."""
    reset_all()  # message/connection ids reach process names
    env = Environment()
    env.enable_trace_hash()
    TraceReplayer(Cluster(config, env=env), trace).run()
    return env.trace_hash()


# -- routing -----------------------------------------------------------------

#: Pinned routing assignments: these may only change if the hash
#: function changes, which would strand every persisted deployment map.
GOLDEN_ROUTES = {
    ("/data/shared", 2): 1,
    ("/data/shared", 4): 3,
    ("/shared/f0", 4): 2,
    ("/shared/f1", 4): 1,
    ("/p0/new0", 4): 1,
    ("/p1/new0", 4): 0,
}


def test_mgr_shard_of_golden_routes():
    for (path, n), expected in GOLDEN_ROUTES.items():
        assert protocol.mgr_shard_of(path, n) == expected


def test_mgr_shard_of_single_shard_is_zero():
    assert protocol.mgr_shard_of("/anything", 1) == 0


def test_mgr_shard_of_in_range_and_covers_shards():
    paths = [f"/f{i}" for i in range(256)]
    shards = {protocol.mgr_shard_of(p, 4) for p in paths}
    assert all(0 <= protocol.mgr_shard_of(p, 4) < 4 for p in paths)
    assert shards == {0, 1, 2, 3}  # no shard starves


def test_mgr_shard_of_rejects_bad_count():
    with pytest.raises(ValueError):
        protocol.mgr_shard_of("/x", 0)


def test_owning_mgr_shard_inverts_id_allocation():
    import itertools

    for n_shards in (1, 2, 4, 8):
        for shard in range(n_shards):
            ids = itertools.count(shard + 1, n_shards)
            for _ in range(5):
                assert (
                    protocol.owning_mgr_shard(next(ids), n_shards) == shard
                )


# -- config seam ----------------------------------------------------------------


def test_mgr_shards_default_is_one():
    assert ClusterConfig().resolved_mgr_shards == 1


def test_mgr_shards_explicit_wins_over_env(monkeypatch):
    monkeypatch.setenv(MGR_SHARDS_ENV_VAR, "8")
    assert ClusterConfig(mgr_shards=2).resolved_mgr_shards == 2


def test_mgr_shards_env_var(monkeypatch):
    monkeypatch.setenv(MGR_SHARDS_ENV_VAR, "4")
    assert ClusterConfig().resolved_mgr_shards == 4


def test_mgr_shards_validation():
    with pytest.raises(ValueError):
        ClusterConfig(mgr_shards=0)


# -- cluster assembly -------------------------------------------------------------


def test_single_shard_keeps_plain_mgr_label():
    cluster = make_cluster()
    assert cluster.mgr is cluster.mgr_servers[0]
    assert cluster.mgr.name == "mgr"
    assert cluster.mgr_placements == [("node0", cluster.config.MGR_PORT)]


def test_shards_round_robin_over_iod_nodes():
    cluster = make_cluster(compute_nodes=4, iod_nodes=2, mgr_shards=4)
    port = cluster.config.MGR_PORT
    assert cluster.mgr_placements == [
        ("node0", port),
        ("node1", port),
        ("node0", port + 1),
        ("node1", port + 1),
    ]
    assert [s.name for s in cluster.mgr_servers] == [
        "mgr0", "mgr1", "mgr2", "mgr3"
    ]


def test_placement_is_round_robin_over_iods_then_ports():
    """Shard k lives on iod ``k % n`` at port ``MGR_PORT + k // n``."""
    config = ClusterConfig(compute_nodes=4, iod_nodes=4, mgr_shards=6)
    iods = config.iod_node_names()
    assert Cluster(config).mgr_placements == [
        (iods[k % 4], config.MGR_PORT + k // 4) for k in range(6)
    ]


# -- end-to-end routing --------------------------------------------------------


def test_opens_route_to_owning_shard():
    cluster = make_cluster(compute_nodes=4, iod_nodes=4, mgr_shards=4)
    client = cluster.client("node0")
    paths = [f"/routes/f{i}" for i in range(8)]

    def app(env):
        handles = []
        for path in paths:
            handles.append((yield from client.open(path)))
        return handles

    handles = run_app(cluster, app(cluster.env))
    for path, handle in zip(paths, handles):
        shard = protocol.mgr_shard_of(path, 4)
        # The file id encodes its allocator; only the owning shard
        # knows the path.
        assert protocol.owning_mgr_shard(handle.file_id, 4) == shard
        assert cluster.mgr_servers[shard].lookup(path) is not None
        for other in range(4):
            if other != shard:
                assert cluster.mgr_servers[other].lookup(path) is None


def test_listdir_merges_all_shards_sorted():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=4)
    client = cluster.client("node0")
    paths = [f"/ls/f{i}" for i in range(10)]

    def app(env):
        for path in paths:
            yield from client.open(path)
        return (yield from client.listdir())

    listed = run_app(cluster, app(cluster.env))
    assert listed == sorted(paths)


def test_stat_and_unlink_route_to_owner():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=3)
    client = cluster.client("node0")

    def app(env):
        yield from client.open("/route/stat-me")
        reply = yield from client.stat("/route/stat-me")
        missing = yield from client.stat("/route/never-made")
        existed = yield from client.unlink("/route/stat-me")
        gone = yield from client.stat("/route/stat-me")
        return reply, missing, existed, gone

    reply, missing, existed, gone = run_app(cluster, app(cluster.env))
    assert reply is not None
    assert missing is None
    assert existed
    assert gone is None


def test_sync_write_invalidates_across_shard_directories():
    """Coherence still works when the owning shard is not shard 0."""
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=4)
    path = "/data/shared"  # routes to shard 3 under 4 shards
    assert protocol.mgr_shard_of(path, 4) == 3
    reader = cluster.client("node1")
    writer = cluster.client("node0")

    def read_side(env):
        handle = yield from reader.open(path)
        yield from reader.read(handle, 0, 64 * 1024)

    def write_side(env):
        handle = yield from writer.open(path)
        yield from writer.sync_write(handle, 0, 64 * 1024)

    run_app(cluster, read_side(cluster.env))
    before = cluster.metrics.count("cache.invalidations_received")
    run_app(cluster, write_side(cluster.env))
    assert cluster.metrics.count("cache.invalidations_received") > before


def test_iod_directory_view_merges_partitions():
    """One directory answers for files of every mgr shard: the
    partition is a function of the file id, not a second table."""
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=2)
    iod = cluster.iods[0]
    assert protocol.owning_mgr_shard(1, 2) == 0
    assert protocol.owning_mgr_shard(2, 2) == 1
    iod.directory.note(1, 0, 1, "node0")
    iod.directory.note(2, 0, 1, "node1")
    assert iod.directory.sharers(1, 0) == {"node0"}
    assert iod.directory.sharers(2, 0) == {"node1"}
    assert iod.stats()["directory_files"] == 2
    # Same block number, different files (and shards): no cross-talk.
    assert iod.directory.invalidate(1, 0, 1, "node1") == {"node0": [0]}
    assert iod.directory.sharers(1, 0) == set()
    assert iod.directory.sharers(2, 0) == {"node1"}
    assert iod.stats()["directory_files"] == 1


# -- determinism -----------------------------------------------------------------


def test_explicit_single_shard_hash_matches_default():
    """mgr_shards=1 is bit-identical to the unset default."""
    trace = make_trace()
    assert replay_hash(small_config(), trace) == replay_hash(
        small_config(mgr_shards=1), trace
    )


def test_sharded_mgr_changes_the_schedule():
    trace = make_trace()
    assert replay_hash(small_config(), trace) != replay_hash(
        small_config(mgr_shards=4), trace
    )


def test_sharded_mgr_is_run_to_run_deterministic():
    trace = make_trace()
    assert replay_hash(small_config(mgr_shards=4), trace) == replay_hash(
        small_config(mgr_shards=4), trace
    )


def test_open_loop_knee_moves_with_mgr_shards():
    """A saturating open-loop workload completes measurably more
    ops/s with a sharded mgr (the p=256 version with the ≥2x floor is
    the ``mgr-shards-knee`` row of ``repro.experiments.validate``)."""
    from repro.workload.openloop import OpenLoopParams, generate

    params = OpenLoopParams(
        processes=16,
        duration_s=0.1,
        rate_ops_s=16000,
        churn=1.0,
        read_fraction=0.0,
        write_fraction=1.0,
        access="uniform",
        file_bytes=4 << 20,
        seed=11,
    )
    trace = generate(params)
    rates = {}
    for mgr_shards in (1, 4):
        config = ClusterConfig(
            compute_nodes=16, iod_nodes=16, mgr_shards=mgr_shards
        )
        makespan = TraceReplayer(
            Cluster(config), trace, preserve_timing=True
        ).run()
        rates[mgr_shards] = len(trace) / makespan
    assert rates[4] > 1.5 * rates[1]
