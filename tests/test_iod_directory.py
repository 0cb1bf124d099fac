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

import textwrap
import tracemalloc
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flow import analyze_paths
from repro.analysis.shared import declared_shared
from repro.pvfs.directory import SharerDirectory
from repro.pvfs.iod import Iod
from tests.conftest import bare_iod, make_cluster, run_app

BLOCK = 4096
FILES = (1, 2, 3)
NODES = ("node0", "node1", "node2", "node3")
N_BLOCKS = 64


# -- (a) differential oracle ----------------------------------------------


class _PerBlockDirectory:
    """The implementation this PR replaced: one set of sharers per
    (file, block), walked block by block."""

    def __init__(self):
        self.table = {}

    def note(self, file_id, ranges, node):
        for first, end in ranges:
            for block in range(first, end):
                self.table.setdefault((file_id, block), set()).add(node)

    def invalidate(self, file_id, ranges, writer):
        victims = {}
        for first, end in ranges:
            for block in range(first, end):
                key = (file_id, block)
                for sharer in sorted(self.table.get(key, ())):
                    if sharer != writer:
                        victims.setdefault(sharer, []).append(block)
                if key in self.table:
                    keep = {writer} if writer in self.table[key] else set()
                    self.table[key] = keep
        return list(victims.items())

    def forget(self, file_id):
        for key in [key for key in self.table if key[0] == file_id]:
            del self.table[key]

    def sharers(self, file_id, block):
        return self.table.get((file_id, block), set())


def _note(iod, file_id, ranges, node):
    for first, end in ranges:
        iod.directory.note(file_id, first, end, node)


def _invalidate(iod, file_id, ranges, writer):
    """[(node, blocks), ...] in the order the iod put them on the wire."""
    del iod.sent[:]
    req = types.SimpleNamespace(
        file_id=file_id,
        ranges=[(first * BLOCK, (end - first) * BLOCK) for first, end in ranges],
        requester_node=writer,
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
    ),
    st.tuples(st.just("forget"), st.sampled_from(FILES)),
)


@settings(max_examples=300, deadline=None)
@given(script=st.lists(_op, max_size=30))
def test_directory_matches_the_per_block_table(script):
    iod, oracle = bare_iod(), _PerBlockDirectory()
    for op, file_id, *args in script:
        if op == "note":
            _note(iod, file_id, *args)
            oracle.note(file_id, *args)
        elif op == "invalidate":
            # same victims, same order, same ascending-per-range blocks
            assert _invalidate(iod, file_id, *args) == oracle.invalidate(
                file_id, *args
            )
        else:
            iod.directory.forget(file_id)
            oracle.forget(file_id)
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
#: before the directory became runs (e78cfb8, per-block table).
PINNED_SCENARIO = {
    "trace_hash": "3df48f64f61fd848305cdfdd593cde46",
    "iod.invalidations_sent": 81,
    "cache.invalidations_received": 81,
    "cache.invalidated_blocks": 81,
    "cache.misses": 177,
}


def _coherent_scenario():
    """Three cached readers with staggered, overlapping footprints on a
    file striped over two iods; a cached ``sync_write`` across three
    stripe units; a raw list ``sync_write`` (several ranges in one
    request per iod); then everybody reads again."""
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

    def app():
        yield env.all_of([env.process(reader(name)) for name in footprints])
        yield env.process(writers())
        yield env.all_of([env.process(reader(name)) for name in footprints])

    run_app(cluster, app())
    observed = {"trace_hash": env.trace_hash()}
    for name in PINNED_SCENARIO:
        if name != "trace_hash":
            observed[name] = cluster.metrics.count(name)
    return observed


def test_coherent_scenario_schedule_is_pinned():
    assert _coherent_scenario() == PINNED_SCENARIO


# -- analyzer coverage --------------------------------------------------------


def test_flow_analyzer_still_guards_the_directory(tmp_path):
    """``Iod`` declares the new attribute, and a sharer lookup that is
    acted on after a yield is an RPL100 finding, as it was for the
    ``directories`` tables."""
    assert declared_shared(Iod) == frozenset({"directory"})
    module = tmp_path / "stale_sharers.py"
    module.write_text(
        textwrap.dedent(
            '''
            from repro.analysis.shared import shared_state


            @shared_state("directory")
            class Daemon:
                def handle(self, env, file_id, block, node):
                    known = self.directory.sharers(file_id, block)
                    yield env.timeout(1)
                    if node not in known:
                        self.directory.note(file_id, block, block + 1, node)
            '''
        )
    )
    findings = analyze_paths([module]).findings
    assert [(f.code, f.detail) for f in findings] == [("RPL100", "directory")]
