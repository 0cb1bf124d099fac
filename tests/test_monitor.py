"""Tests for the per-daemon tables and the ``--daemons`` summary."""

import io

import pytest

from repro.experiments.report import daemon_summary
from repro.metrics import daemon_table, mgr_shard_table
from repro.pvfs import protocol
from repro.sim import Environment
from repro.svc import get_bus
from tests.conftest import make_cluster


def _summary(shards):
    stream = io.StringIO()
    daemon_summary(stream=stream, mgr_shards=shards)
    return stream.getvalue()


# -- the --daemons summary ----------------------------------------------------

#: ``python -m repro.experiments --daemons`` at one and three mgr shards.
#: Every number comes from a ServiceStats record, the fabric's
#: ``stats_snapshot()`` or the engine's ``sched_stats()``; padding at
#: line ends is not compared.  A writeback daemon's ``q-high`` is the
#: most pages it ever held dirty, and ``handled`` the runs it wrote.
DAEMONS_ONE_SHARD = """\
daemon           node   state    handled  q-high  busy(s)  dropped
writeback-node0  node0  running  2        32      0.0174   0
writeback-node1  node1  running  1        32      0.0000   0
mgr              node0  running  2        1       0.0001   0
iod-node0        node0  running  4        1       0.0007   0
iod-node1        node1  running  2        1       0.0044   0
cache-node0      node0  running  1        1       0.0001   0
flusher-node0    node0  running  0        0       0.0000   0
harvester-node0  node0  running  0        0       0.0000   0
cache-node1      node1  running  0        0       0.0000   0
flusher-node1    node1  running  0        0       0.0000   0
harvester-node1  node1  running  0        0       0.0000   0

metadata shards:
shard  node   meta-ops  ops/s  q-high  inval-out
0      node0  2         53.3   1       1

[12 dispatches counted by ServiceStats]
[network: frames-switch, 18 messages, 263264 bytes, wire busy 0.0211s]
[scheduler: 412 events (142 taken in place), depth hw 15]
"""

DAEMONS_THREE_SHARDS = """\
daemon           node   state    handled  q-high  busy(s)  dropped
writeback-node0  node0  running  2        32      0.0174   0
writeback-node1  node1  running  1        32      0.0000   0
mgr0             node0  running  0        0       0.0000   0
mgr1             node1  running  0        0       0.0000   0
mgr2             node0  running  2        1       0.0001   0
iod-node0        node0  running  4        1       0.0007   0
iod-node1        node1  running  2        1       0.0044   0
cache-node0      node0  running  1        1       0.0001   0
flusher-node0    node0  running  0        0       0.0000   0
harvester-node0  node0  running  0        0       0.0000   0
cache-node1      node1  running  0        0       0.0000   0
flusher-node1    node1  running  0        0       0.0000   0
harvester-node1  node1  running  0        0       0.0000   0

metadata shards:
shard  node   meta-ops  ops/s  q-high  inval-out
0      node0  0         0.0    0       0
1      node1  0         0.0    0       0
2      node0  2         53.3   1       1

[12 dispatches counted by ServiceStats]
[network: frames-switch, 18 messages, 263264 bytes, wire busy 0.0211s]
[scheduler: 414 events (142 taken in place), depth hw 17]
"""


PINNED = {1: DAEMONS_ONE_SHARD, 3: DAEMONS_THREE_SHARDS}


@pytest.mark.parametrize("shards", sorted(PINNED))
def test_daemon_summary_prints_the_pinned_report(shards):
    out = _summary(shards)
    assert [line.rstrip() for line in out.splitlines()] == PINNED[shards].splitlines()


def test_daemon_summary_scheduler_line_fields():
    line = next(
        ln for ln in _summary(1).splitlines()
        if ln.startswith("[scheduler:")
    )
    for field in ("events", "taken in place", "depth hw"):
        assert field in line
    assert "timers" not in line


def test_daemon_summary_prints_mgr_shard_rows():
    out = _summary(1)
    assert "metadata shards:" in out
    assert "inval-out" in out


# -- per-mgr-shard instrumentation -------------------------------------------


def _staggered_share(cluster):
    """node1 reads a file, then node0 sync_writes it (forces fan-out)."""
    client1 = cluster.client("node1")
    client0 = cluster.client("node0")

    def reader(env):
        handle = yield from client1.open("/data/shared")
        yield from client1.read(handle, 0, 256 * 1024)

    def writer(env):
        handle = yield from client0.open("/data/shared")
        yield from client0.sync_write(handle, 0, 64 * 1024)

    cluster.env.run(until=cluster.env.process(reader(cluster.env)))
    cluster.env.run(until=cluster.env.process(writer(cluster.env)))


def _rows(table):
    """Shard number -> the rest of its row's cells."""
    return {int(line.split()[0]): line.split()[1:] for line in table.splitlines()[1:]}


def test_daemon_monitor_tracks_metadata_ops_per_shard():
    cluster = make_cluster(mgr_shards=2)
    _staggered_share(cluster)
    owner = protocol.mgr_shard_of("/data/shared", 2)
    # Both opens hit the owning shard; the other shard saw nothing.
    rows = _rows(mgr_shard_table(get_bus(cluster.env)))
    assert {shard: int(row[1]) for shard, row in rows.items()} == {
        owner: 2, 1 - owner: 0
    }


def test_daemon_monitor_attributes_invalidation_fanout_to_owner():
    # daemon_summary's workload opens /data/shared, owned by shard 2 of
    # 3.  The sync_write invalidates the other node's cached copy; the
    # fan-out is charged to the owning shard only.
    assert protocol.mgr_shard_of("/data/shared", 3) == 2
    out = _summary(3)
    table = out.split("metadata shards:\n")[1].split("\n\n")[0]
    fanout = {shard: int(row[-1]) for shard, row in _rows(table).items()}
    assert fanout == {0: 0, 1: 0, 2: 1}


def test_receive_side_invalidations_never_reach_shard_zero():
    # On one shard the owner is shard 0 itself: the cache module's
    # receive-side record (no mgr_shard) would make its count 2.
    out = _summary(1)
    table = out.split("metadata shards:\n")[1].split("\n\n")[0]
    assert _rows(table)[0][-1] == "1"


def test_mgr_shard_table_one_row_per_shard():
    cluster = make_cluster(mgr_shards=4)
    _staggered_share(cluster)
    table = mgr_shard_table(get_bus(cluster.env), cluster.env.now, {3: 5})
    lines = table.splitlines()
    assert lines[0].split() == [
        "shard", "node", "meta-ops", "ops/s", "q-high", "inval-out"
    ]
    assert len(lines) == 5  # header + 4 shards
    assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    # The fan-out column is the caller's count, shard by shard.
    assert [line.split()[-1] for line in lines[1:]] == ["0", "0", "0", "5"]


def test_mgr_shard_table_single_shard_is_plain_mgr():
    cluster = make_cluster()
    _staggered_share(cluster)
    table = mgr_shard_table(get_bus(cluster.env), duration_s=cluster.env.now)
    lines = table.splitlines()
    assert len(lines) == 2
    row = lines[1].split()
    assert row[0] == "0"
    assert int(row[2]) == 2  # both opens
    assert float(row[3]) > 0  # ops/s computed from duration


def test_mgr_shard_table_no_cluster():
    assert mgr_shard_table(get_bus(Environment())) == "(no mgr shards registered)"


def test_monitor_empty_table():
    assert daemon_table(get_bus(Environment())) == "(no services registered)"
