"""The iod's sharer directory as runs of blocks (DESIGN.md §17).

``SharerDirectory`` replaced a ``{(file_id, block): set(nodes)}`` table
that cost one tuple and one set per 4 KB block ever read through a
cache.  The table is kept *here* as the oracle: for any script of
reads, ``sync_write``s and removals the run-based directory must name
the same victims in the same order (the order decides channel set-up
and packet order, hence every downstream event), hand each the same
block list, and answer ``sharers()`` identically afterwards.  Further
down: the state is bounded by stripe units rather than blocks, as
counts and as bytes, and a pinned schedule hash taken on the per-block
implementation holds end to end.
"""

import tracemalloc
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pvfs.directory import SharerDirectory
from tests.conftest import bare_iod, make_cluster, run_app

BLOCK = 4096
FILES = (1, 2, 3)
NODES = ("node0", "node1", "node2", "node3")
N_BLOCKS = 64


# -- (a) differential oracle ----------------------------------------------


class _PerBlockDirectory:
    """The per-block table the run-based directory replaced: one set of
    sharers per (file, block), walked block by block.  A cached
    ``sync_write`` leaves the writer the sharer of every block it
    wrote (its cache holds the new bytes); a raw one leaves no sharer,
    and invalidates the writer's node like any other."""

    def __init__(self):
        self.table = {}

    def note(self, file_id, ranges, node):
        for first, end in ranges:
            for block in range(first, end):
                self.table.setdefault((file_id, block), set()).add(node)

    def invalidate(self, file_id, ranges, writer, from_cache=True):
        victims = {}
        for first, end in ranges:
            for block in range(first, end):
                key = (file_id, block)
                for sharer in sorted(self.table.get(key, ())):
                    if sharer != writer or not from_cache:
                        victims.setdefault(sharer, []).append(block)
                self.table[key] = {writer} if from_cache else set()
        return list(victims.items())

    def sharers(self, file_id, block):
        return self.table.get((file_id, block), set())


def _note(iod, file_id, ranges, node):
    for first, end in ranges:
        iod.directory.note(file_id, first, end, node)


def _invalidate(iod, file_id, ranges, writer, from_cache=True):
    """[(node, blocks), ...] in the order the iod put them on the wire."""
    del iod.sent[:]
    req = types.SimpleNamespace(
        file_id=file_id,
        ranges=[(first * BLOCK, (end - first) * BLOCK) for first, end in ranges],
        requester_node=writer,
        from_cache=from_cache,
    )
    for _ in iod._invalidate_sharers(req):
        pass
    return list(iod.sent)


_block_range = st.tuples(
    st.integers(0, N_BLOCKS - 1), st.integers(1, 12)
).map(lambda t: (t[0], min(t[0] + t[1], N_BLOCKS)))
_ranges = st.lists(_block_range, min_size=1, max_size=3)
_op = st.one_of(
    st.tuples(
        st.just("note"), st.sampled_from(FILES), _ranges, st.sampled_from(NODES)
    ),
    st.tuples(
        st.just("invalidate"),
        st.sampled_from(FILES),
        _ranges,
        st.sampled_from(NODES),
        st.booleans(),  # from_cache: a raw sync_write spares no node
    ),
)


@settings(max_examples=300, deadline=None)
@given(script=st.lists(_op, max_size=30))
def test_directory_matches_the_per_block_table(script):
    iod, oracle = bare_iod(), _PerBlockDirectory()
    for op, file_id, *args in script:
        if op == "note":
            _note(iod, file_id, *args)
            oracle.note(file_id, *args)
        else:
            # same victims, same order, same ascending-per-range blocks
            assert _invalidate(iod, file_id, *args) == oracle.invalidate(
                file_id, *args
            )
    for file_id in FILES:
        for block in range(N_BLOCKS):
            assert iod.directory.sharers(file_id, block) == oracle.sharers(
                file_id, block
            ), (file_id, block)
    # a block counts once per node that may cache it, and nothing is
    # kept for a node or file whose last block went
    stats = iod.directory.stats()
    assert stats["directory_blocks"] == sum(map(len, oracle.table.values()))
    assert stats["directory_files"] == len(
        {file_id for (file_id, _), nodes in oracle.table.items() if nodes}
    )


def test_victim_order_is_first_occurrence_not_node_major():
    """Block 0 -> {node2}, block 1 -> {node1}: the block walk meets
    node2 first, so node2's channel is set up and written to first.  A
    loop over nodes in name order would say node1, node2 and move
    every later event."""
    iod = bare_iod()
    _note(iod, 7, [(0, 1)], "node2")
    _note(iod, 7, [(1, 2)], "node1")
    assert _invalidate(iod, 7, [(0, 2)], "writer") == [
        ("node2", [0]),
        ("node1", [1]),
    ]


def test_victim_order_follows_request_ranges_before_block_numbers():
    iod, oracle = bare_iod(), _PerBlockDirectory()
    for directory_note in (
        lambda *a: _note(iod, *a),
        oracle.note,
    ):
        directory_note(7, [(0, 4)], "node1")
        directory_note(7, [(2, 8)], "node2")
        directory_note(7, [(0, 8)], "node3")
    ranges = [(6, 8), (0, 3), (2, 7)]  # descending, then overlapping
    expected = [
        ("node2", [6, 7, 2, 3, 4, 5]),
        ("node3", [6, 7, 0, 1, 2, 3, 4, 5]),
        ("node1", [0, 1, 2, 3]),
    ]
    assert oracle.invalidate(7, ranges, "node3x") == expected
    assert _invalidate(iod, 7, ranges, "node3x") == expected


def test_writer_keeps_what_it_had_and_no_husks_remain():
    directory = SharerDirectory()
    directory.note(7, 0, 8, "writer")
    directory.note(7, 4, 12, "node1")
    assert directory.invalidate(7, 2, 10, "writer") == {
        "node1": [4, 5, 6, 7, 8, 9]
    }
    assert directory.sharers(7, 5) == {"writer"}
    assert directory.sharers(7, 9) == set()  # the writer never read it
    assert directory.sharers(7, 11) == {"node1"}
    assert directory.invalidate(7, 10, 12, "writer") == {"node1": [10, 11]}
    assert directory.stats() == {
        "directory_files": 1,
        "directory_runs": 1,
        "directory_blocks": 8,
    }
    assert directory.invalidate(7, 0, 8, "node1") == {
        "writer": list(range(8))
    }
    assert directory.stats() == {
        "directory_files": 0,
        "directory_runs": 0,
        "directory_blocks": 0,
    }
    directory.note(7, 3, 3, "node1")  # an empty read registers nothing
    assert directory.stats()["directory_files"] == 0


# -- (b) bounded state ------------------------------------------------------

STRIPE_BLOCKS = 16  # 64 KB stripe units of 4 KB blocks (the defaults)
UNITS_PER_IOD = 4


def _sequential_reads(cluster, node_name, passes):
    """Read a file of ``UNITS_PER_IOD`` stripe units per iod front to
    back ``passes`` times through ``node_name``'s cache, which is too
    small to keep it, so every pass goes back to the iods."""
    client = cluster.client(node_name)
    unit = STRIPE_BLOCKS * BLOCK
    n_units = UNITS_PER_IOD * len(cluster.iods)

    def app(env):
        handle = yield from client.open("/stream")
        for _ in range(passes):
            for i in range(n_units):
                yield from client.read(handle, i * unit, unit)

    run_app(cluster, app(cluster.env))


def test_sequential_reads_leave_one_run_per_stripe_unit():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, cache_blocks=32)
    misses = []
    for passes in (1, 3):  # ... however often the walk is repeated
        _sequential_reads(cluster, "node0", passes)
        misses.append(cluster.metrics.count("cache.misses"))
        for iod in cluster.iods:
            stats = iod.stats()
            assert stats["directory_files"] == 1
            assert stats["directory_runs"] == UNITS_PER_IOD
            assert stats["directory_blocks"] == UNITS_PER_IOD * STRIPE_BLOCKS
    assert misses[1] == 4 * misses[0]  # every pass really reached the iods
    # a second node on the same blocks: N more runs, nothing per block
    _sequential_reads(cluster, "node1", 2)
    for iod in cluster.iods:
        stats = iod.stats()
        assert stats["directory_files"] == 1
        assert stats["directory_runs"] == 2 * UNITS_PER_IOD
        assert stats["directory_blocks"] == 2 * UNITS_PER_IOD * STRIPE_BLOCKS
        assert 0 < stats["pagecache_blocks"] <= stats["pagecache_capacity"]


def _traced_bytes(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()  # held until measured
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built is not None
    return after - before


def test_directory_costs_bytes_per_stripe_unit_not_per_block():
    """The walk above at benchmark length — what one of two iods sees
    of two nodes streaming a 64 MB file four times — under tracemalloc.
    The per-block table measured ~340 B per entry (~170 B per block and
    node with two sharers an entry); runs must stay under 40 B (they
    measure ~5: two ints and two list slots per 16 blocks)."""
    units = 512
    blocks = 2 * units * STRIPE_BLOCKS

    def walk(note):
        for _ in range(4):
            for node in ("node0", "node1"):
                for unit in range(units):
                    first = 2 * unit * STRIPE_BLOCKS  # every other unit
                    note(7, first, first + STRIPE_BLOCKS, node)

    def runs():
        directory = SharerDirectory()
        walk(directory.note)
        assert directory.stats() == {
            "directory_files": 1,
            "directory_runs": 2 * units,
            "directory_blocks": blocks,
        }
        return directory

    def per_block():
        oracle = _PerBlockDirectory()
        walk(lambda file_id, first, end, node: oracle.note(
            file_id, [(first, end)], node
        ))
        return oracle

    assert _traced_bytes(runs) / blocks < 40
    assert _traced_bytes(per_block) / blocks > 150  # the yardstick works


# -- (c) end to end -----------------------------------------------------------

#: Schedule digest and counters of ``_coherent_scenario`` on the commit
#: before the directory became runs (e78cfb8, per-block table).  The
#: digest was re-pinned when the unwaited socket-lock grant and
#: writeback-drained events went: 1725 -> 1592 events (was
#: 3df48f64f61fd848305cdfdd593cde46), counters unchanged.  Then again
#: when a raw sync_write stopped sparing the writer's node: node3's raw
#: list write now invalidates the 18 blocks its cached sync_write left
#: there, 81 -> 99 invalidations, 1592 -> 1632 events (was
#: f0587acb7575c4cf9ac428ce4ee18342).  And again when a raw sync_write
#: began to wait for its node's flush batches in flight: node3's raw
#: write waits 43 us for a batch holding two of its blocks' older bytes,
#: whose done event now fires, 1632 -> 1633 events, counters unchanged
#: (was 9c323028450efc5c5a0691f931f45a5e).  And again when a cached
#: sync_write's blocks took the write-back mark: the flusher no longer
#: ships node3's 48 written-through blocks a second time (two batches,
#: 196 608 bytes, gone), so node3's raw write waits for no batch either,
#: 1633 -> 1536 events.  Those two batches were the scenario's only
#: flush to both iods, which the hash-seed test needs, so node0 now
#: ends it with a buffered write over both iods and a drain, 1536 ->
#: 1656 events, counters unchanged (was
#: 586b0310e1aa93d74e834456ada14bbb).  And again when the iod's
#: writeback became dirty pages written in runs: adjacent pages go to
#: the disk as one request and the mailbox's put/get events are gone,
#: 1656 -> 1632 events, counters unchanged (was
#: 523d0cfe04dfc45a56262876bf1bd8b1).
PINNED_SCENARIO = {
    "trace_hash": "23b3f1fafa4b3d7a02f9eb96d69ebd24",
    "iod.invalidations_sent": 99,
    "cache.invalidations_received": 99,
    "cache.invalidated_blocks": 99,
    "cache.misses": 177,
}


def _coherent_scenario():
    """Three cached readers with staggered, overlapping footprints on a
    file striped over two iods; a cached ``sync_write`` across three
    stripe units; a raw list ``sync_write`` (several ranges in one
    request per iod); then everybody reads again, and node0 writes over
    both iods and drains."""
    cluster = make_cluster(compute_nodes=4, iod_nodes=2, mgr_shards=1)
    env = cluster.env
    env.enable_trace_hash()
    unit = STRIPE_BLOCKS * BLOCK
    footprints = {
        "node2": (0, 2 * unit),
        "node1": (unit // 2, 2 * unit),
        "node0": (2 * unit, 2 * unit),
    }

    def reader(name):
        client = cluster.client(name)
        handle = yield from client.open("/shared")
        offset, nbytes = footprints[name]
        for pos in range(offset, offset + nbytes, unit // 2):
            yield from client.read(handle, pos, unit // 2)

    def writers():
        cached = cluster.client("node3")
        handle = yield from cached.open("/shared")
        yield from cached.sync_write(handle, unit // 4, 3 * unit)
        raw = cluster.client("node3", use_cache=False)
        yield from raw.writev(
            handle,
            [(3 * unit + BLOCK, 2 * BLOCK), (0, BLOCK), (2 * unit, unit)],
            sync=True,
        )

    def spill():
        # One flush round ships a batch to each iod, in the flusher's
        # iod order: a hash-seeded order would show in the digest.
        client = cluster.client("node0")
        handle = yield from client.open("/shared")
        yield from client.write(handle, 0, 2 * unit)
        yield from cluster.drain_caches()

    def app():
        yield env.all_of([env.process(reader(name)) for name in footprints])
        yield env.process(writers())
        yield env.all_of([env.process(reader(name)) for name in footprints])
        yield env.process(spill())

    run_app(cluster, app())
    observed = {"trace_hash": env.trace_hash()}
    for name in PINNED_SCENARIO:
        if name != "trace_hash":
            observed[name] = cluster.metrics.count(name)
    return observed


def test_coherent_scenario_schedule_is_pinned():
    assert _coherent_scenario() == PINNED_SCENARIO
