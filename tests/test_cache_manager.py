"""Unit tests for the BufferManager."""

import contextlib
import sys

import pytest

from repro.cache.block import BlockState, ready_run, unpin_run
from repro.cache.manager import BufferManager
from repro.cluster.config import CacheConfig
from repro.metrics import Metrics
from repro.sim import Environment


def _manager(n_blocks=8, replacement="clock", **cache_kwargs):
    env = Environment()
    config = CacheConfig(
        size_bytes=n_blocks * 4096,
        block_size=4096,
        replacement=replacement,
        low_watermark=0.25,
        high_watermark=0.5,
        **cache_kwargs,
    )
    return env, BufferManager(env, config, Metrics())


def test_initial_state():
    env, m = _manager(8)
    assert m.n_free == 8
    assert m.n_resident == 0
    assert m.n_dirty == 0
    assert m.lookup((1, 0)) is None


def test_exact_lru_policy_selected():
    env, m = _manager(replacement="exact-lru")
    from repro.cache.clock import ExactLRUPolicy

    assert isinstance(m.policy, ExactLRUPolicy)


def test_allocate_then_lookup():
    env, m = _manager()
    result = {}

    def proc(env):
        block, resident = yield from m.get_or_allocate((1, 0))
        result["first"] = (block, resident)
        block2, resident2 = yield from m.get_or_allocate((1, 0))
        result["second"] = (block2, resident2)

    env.process(proc(env))
    env.run()
    block, resident = result["first"]
    assert resident is False
    assert block.state is BlockState.PENDING
    block2, resident2 = result["second"]
    assert resident2 is True
    assert block2 is block
    assert m.lookup((1, 0)) is block
    assert m.n_resident == 1
    assert m.n_free == 7


def test_concurrent_allocations_coalesce():
    """Two processes missing the same key get the SAME block."""
    env, m = _manager()
    got = []

    def proc(env, tag):
        block, resident = yield from m.get_or_allocate((1, 7))
        got.append((tag, block, resident))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert len(got) == 2
    assert got[0][1] is got[1][1]
    assert m.metrics.count("cache.allocations") == 1


def test_concurrent_different_keys_distinct_blocks():
    env, m = _manager()
    got = []

    def proc(env, key):
        block, _ = yield from m.get_or_allocate(key)
        got.append(block)

    env.process(proc(env, (1, 0)))
    env.process(proc(env, (1, 1)))
    env.run()
    assert got[0] is not got[1]


def test_note_write_and_cleaned():
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        block.write(0, 10, None)
        m.note_write(block)
        assert m.n_dirty == 1
        epoch = block.dirty_epoch
        assert m.note_cleaned(block, epoch) is True
        assert m.n_dirty == 0
        assert block.state is BlockState.CLEAN

    p = env.process(proc(env))
    env.run()
    assert p.ok


def test_note_cleaned_raced_epoch():
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        block.write(0, 10, None)
        m.note_write(block)
        old_epoch = block.dirty_epoch
        block.write(10, 20, None)  # race: rewritten during flush
        assert m.note_cleaned(block, old_epoch) is False
        assert m.n_dirty == 1

    p = env.process(proc(env))
    env.run()
    assert p.ok


def test_evict_clean_returns_to_freelist():
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        ready_run((block,))
        before = env.sched_stats()["queue_depth"]
        m.evict([block])
        # FreeList.release_run hands the frame back in place: no StorePut
        assert env.sched_stats()["queue_depth"] == before
        assert m.n_free == 8
        assert m.lookup((1, 0)) is None
        assert block.state is BlockState.FREE

    p = env.process(proc(env))
    env.run()
    assert p.ok


def test_evict_fails_a_pending_waiter_before_releasing_its_frame():
    """Block by block: evicting a PENDING block fails its waiters'
    ``ready_event`` before the frame's release wakes an allocator
    waiting on the dry free list, so the waiter resumes first."""
    env, m = _manager(n_blocks=1)
    order = []

    def owner(env):
        block, _ = yield from m.get_or_allocate((1, 0))  # the only frame
        yield env.timeout(5)
        m.evict([block])

    def reader(env):
        yield env.timeout(1)
        try:
            yield m.lookup((1, 0)).ready(env)
        except RuntimeError:
            order.append(("ready failed", env.now))

    def allocator(env):
        yield env.timeout(2)
        yield from m.get_or_allocate((1, 1))
        order.append(("allocated", env.now))

    for proc in (owner, reader, allocator):
        env.process(proc(env))
    env.run()
    assert order == [("ready failed", 5.0), ("allocated", 5.0)]


def test_evict_guards():
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        ready_run((block,))
        block.pins += 1
        with pytest.raises(ValueError):
            m.evict([block])
        unpin_run((block,))
        block.write(0, 10, None)
        m.note_write(block)
        with pytest.raises(ValueError):
            m.evict([block])  # dirty without force
        m.evict([block], force=True)
        assert block.state is BlockState.FREE
        free = [b for b in m.blocks if b.state is BlockState.FREE][0]
        with pytest.raises(ValueError):
            m.evict([free])

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_invalidate_semantics():
    env, m = _manager()

    def proc(env):
        assert m.invalidate((9, 9)) is False  # absent
        block, _ = yield from m.get_or_allocate((1, 0))
        # PENDING: doomed and unhashed at once, so no later access
        # finds the in-flight fill's possibly-stale bytes; the fetch
        # path frees the frame once it is ready.
        assert m.invalidate((1, 0)) is True
        assert block.doomed
        assert m.lookup((1, 0)) is None
        ready_run((block,))
        m.release_doomed(block)
        assert block.state is BlockState.FREE
        # pinned: unhashed at once, freed at the last unpin
        block, _ = yield from m.get_or_allocate((1, 0))
        ready_run((block,))
        block.pins += 1
        assert m.invalidate((1, 0)) is True
        assert block.doomed
        assert m.lookup((1, 0)) is None
        assert block.state is BlockState.CLEAN  # the copy still holds it
        m.unpin_run((block,))
        assert block.state is BlockState.FREE
        # plain resident: immediate
        block2, _ = yield from m.get_or_allocate((1, 1))
        ready_run((block2,))
        assert m.invalidate((1, 1)) is True
        assert m.lookup((1, 1)) is None

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_invalidate_dirty_forces_drop():
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        block.write(0, 10, None)
        m.note_write(block)
        assert m.invalidate((1, 0)) is True
        assert m.n_dirty == 0
        assert block.state is BlockState.FREE

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_invalidate_dooms_a_block_under_write_back():
    """A block whose bytes are on the wire keeps its frame until the
    last holder of its write-back mark drops it: that write's ack must
    still find the block it captured."""
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        block.write(0, 10, None)
        m.note_write(block)
        block.writeback += 2  # two sync_writes of the block in flight
        with pytest.raises(ValueError, match="under write-back"):
            m.evict([block], force=True)
        assert m.invalidate((1, 0)) is True
        assert block.doomed and m.lookup((1, 0)) is None
        assert m.n_dirty == 0
        m.check_invariants()
        m.end_writeback(block)
        assert block.state is BlockState.DIRTY  # one write still out
        m.check_invariants()
        m.end_writeback(block)
        assert block.state is BlockState.FREE
        m.check_invariants()

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_allocation_exhaustion_waits_for_eviction():
    env, m = _manager(n_blocks=2)
    log = []

    def filler(env):
        b0, _ = yield from m.get_or_allocate((1, 0))
        b1, _ = yield from m.get_or_allocate((1, 1))
        ready_run((b0, b1))
        log.append(("filled", env.now))
        yield env.timeout(10)
        m.evict([b0])
        log.append(("evicted", env.now))

    def late(env):
        yield env.timeout(1)
        block, _ = yield from m.get_or_allocate((1, 2))
        log.append(("allocated", env.now))

    env.process(filler(env))
    env.process(late(env))
    env.run()
    assert ("allocated", 10.0) in log


def test_resident_keys_snapshot():
    env, m = _manager()

    def proc(env):
        for i in range(3):
            block, _ = yield from m.get_or_allocate((1, i))
            ready_run((block,))

    env.process(proc(env))
    env.run()
    assert set(m.table) == {(1, 0), (1, 1), (1, 2)}


def test_a_duplicate_key_commit_raises_key_error():
    """The hash table is a dict, but a second block under a resident
    key is still a consistency error, not an overwrite."""
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        frame = next(b for b in m.blocks if b.state is BlockState.FREE)
        with pytest.raises(KeyError, match="duplicate"):
            m._commit_run((frame,), ((1, 0),))
        assert m.table[(1, 0)] is block

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_evicting_an_unhashed_block_raises():
    """A keyed block that is not the table's block for its key (here: a
    doomed one, already out of the table) cannot be evicted."""
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        assert m.invalidate((1, 0)) is True  # PENDING: doomed, unhashed
        ready_run((block,))
        with pytest.raises(KeyError, match="not in table"):
            m.evict([block])
        m.release_doomed(block)
        assert block.state is BlockState.FREE

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_the_flush_snapshot_keeps_first_dirtied_order():
    """The dirty list is an insertion-ordered dict: a flush round takes
    the blocks oldest-dirtied first, and a re-dirtied block keeps its
    place; only DIRTY blocks may join it."""
    env, m = _manager()

    def proc(env):
        blocks = []
        for i in range(4):
            block, _ = yield from m.get_or_allocate((1, i))
            ready_run((block,))
            blocks.append(block)
        with pytest.raises(ValueError, match="not dirty"):
            m.note_write(blocks[0])
        for block in reversed(blocks):
            block.write(0, 10, None)
            m.note_write(block)
        blocks[3].write(10, 20, None)  # re-dirtied: keeps its place
        m.note_write(blocks[3])
        assert list(m.dirtylist) == blocks[::-1]
        assert m.note_cleaned(blocks[1], blocks[1].dirty_epoch)
        assert list(m.dirtylist) == [blocks[3], blocks[2], blocks[0]]

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_select_victims_passthrough():
    env, m = _manager()

    def proc(env):
        for i in range(4):
            block, _ = yield from m.get_or_allocate((1, i))
            ready_run((block,))
            block.refbit = False

    env.process(proc(env))
    env.run()
    victims = m.select_victims(2)
    assert len(victims) == 2


@pytest.mark.parametrize("replacement", ["clock", "exact-lru"])
@pytest.mark.parametrize("cache_kwargs", [{}], ids=["default"])
def test_select_victims_honours_prefer_clean_eviction(replacement, cache_kwargs):
    """The CLEAN block goes first although the DIRTY one leads the
    sweep: clean before dirty is the paper's policy, not a knob."""
    env, m = _manager(replacement=replacement, **cache_kwargs)

    def proc(env):
        blocks = []
        for i in range(2):
            block, _ = yield from m.get_or_allocate((1, i))
            ready_run((block,))
            blocks.append(block)
        return blocks

    dirty, clean = env.run(until=env.process(proc(env)))
    dirty.write(0, 100, None)
    m.note_write(dirty)
    for block in (dirty, clean):
        block.refbit = False
    assert (dirty.state, clean.state) == (BlockState.DIRTY, BlockState.CLEAN)
    assert m.select_victims(1) == [clean]


# -- in-place turns: the probe's synchronous allocation ----------------------


def test_probe_allocates_in_place_inside_a_run():
    env, m = _manager()
    got = {}

    def proc(env):
        yield env.timeout(1)
        got["miss"] = m.probe(1, [0])
        got["hit"] = m.probe(1, [0])

    env.process(proc(env))
    env.run()
    (block,), none, resident = got["miss"]
    assert none is None and resident is False
    assert block.state is BlockState.PENDING
    assert got["hit"] == ((), block, True)
    assert m.n_free == 7
    assert m.metrics.count("cache.allocations") == 1
    assert env.sched_stats()["turns_in_place"] == 1


def test_probe_refuses_a_take_that_crosses_low_blocks():
    env, m = _manager(8)  # low_blocks 2, high_blocks 4
    woken = []
    m.freelist.on_low = lambda: woken.append(env.now)
    got = []

    def proc(env):
        for i in range(8):
            yield env.timeout(1)
            got.append(len(m.probe(1, [i])[0]) == 1)
            if not got[-1]:
                yield from m.get_or_allocate((1, i))

    env.process(proc(env))
    env.run()
    # takes 1..6 leave >= low_blocks free; 7 and 8 would poke the
    # harvester, so they go through acquire (signal before the get)
    assert got == [True] * 6 + [False] * 2
    assert woken == [7.0, 8.0]
    assert env.sched_stats()["turns_in_place"] == 6
    assert m.n_free == 0


def test_probe_refuses_while_a_rival_holds_the_reservation():
    env, m = _manager()
    got = []

    def rival(env):
        yield from m.get_or_allocate((1, 0))

    def prober(env):
        got.append(m.probe(1, [0]))
        block, resident = yield from m.get_or_allocate((1, 0))
        got.append((block, resident))

    env.process(rival(env))
    env.process(prober(env))
    env.run()
    # the rival's reservation is pending when the prober starts
    assert got[0] == ((), None, False)
    assert got[1][1] is True
    assert m.metrics.count("cache.allocations") == 1


def test_probe_run_ends_on_a_resident_block_and_touches_it():
    env, m = _manager(16)
    got = {}

    def proc(env):
        yield env.timeout(1)
        (b2,), _, _ = m.probe(1, [2])
        ready_run((b2,))
        b2.refbit = False
        got["run"] = m.probe(1, [0, 1, 2, 3])
        got["rest"] = m.probe(1, [0, 1, 2, 3], 3)
        got["b2"] = b2

    env.process(proc(env))
    env.run()
    fresh, block, resident = got["run"]
    assert [b.key for b in fresh] == [(1, 0), (1, 1)]
    assert all(b.state is BlockState.PENDING for b in fresh)
    assert block is got["b2"] and resident is True
    assert block.refbit  # one table probe, and it touched the policy
    (b3,), none, resident = got["rest"]
    assert b3.key == (1, 3) and none is None and resident is False
    # one allocation bump per block, one in-place turn per frame
    assert m.metrics.count("cache.allocations") == 4
    assert env.sched_stats()["turns_in_place"] == 4


def test_probe_run_ends_on_a_pending_block():
    env, m = _manager(16)
    got = {}

    def proc(env):
        yield env.timeout(1)
        m.probe(1, [5])
        got["run"] = m.probe(1, [4, 5, 6])

    env.process(proc(env))
    env.run()
    fresh, block, resident = got["run"]
    assert [b.key for b in fresh] == [(1, 4)]
    assert block.key == (1, 5) and block.state is BlockState.PENDING
    assert resident is True


def test_evict_checks_the_whole_batch_before_touching_any():
    env, m = _manager()

    def proc(env):
        blocks = []
        for i in range(3):
            block, _ = yield from m.get_or_allocate((1, i))
            ready_run((block,))
            blocks.append(block)
        blocks[2].pins += 1
        with pytest.raises(ValueError, match="pinned"):
            m.evict(blocks)
        assert m.n_resident == 3 and m.n_free == 5
        unpin_run((blocks[2],))
        m.evict(blocks)
        assert m.n_resident == 0 and m.n_free == 8
        assert len(m.policy) == 0

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value
    assert m.metrics.count("cache.evictions") == 3


def _footprint(cluster):
    env = cluster.env
    stats = env.sched_stats()
    return (
        env.trace_hash(),
        stats["events_processed"],
        stats["queue_depth_hw"],
        dict(cluster.metrics.counters),
        {k: list(v) for k, v in cluster.metrics.series.items()},
    )


def _fig4_read_point(d):
    from repro.cluster.config import ClusterConfig
    from repro.workload import MicroBenchParams, run_instances

    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=True)
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=d,
        iterations=8,
        mode="read",
        locality=0.0,
        partition_bytes=2 * 2**20,
        seed=4242,
    )
    return run_instances(config, [params]).cluster


def _sync_write_chain():
    from tests.conftest import make_cluster

    cluster = make_cluster()
    writer_client = cluster.client("node0")
    reader_client = cluster.client("node1")

    def writer(env):
        f = yield from writer_client.open("/chain")
        yield from writer_client.write(f, 0, 64 * 1024)
        yield from writer_client.sync_write(f, 16 * 1024, 32 * 1024)
        yield from writer_client.read(f, 0, 64 * 1024)

    def reader(env):
        f = yield from reader_client.open("/chain")
        for _ in range(3):
            yield from reader_client.read(f, 0, 64 * 1024)

    env = cluster.env
    procs = [env.process(writer(env)), env.process(reader(env))]
    env.run(until=env.all_of(procs))
    env.run(until=env.process(cluster.drain_caches()))
    return cluster


def _dry_free_list(replacement="clock"):
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig

    cache = CacheConfig(size_bytes=16 * 4096, replacement=replacement)
    cluster = Cluster(
        ClusterConfig(compute_nodes=1, iod_nodes=1, caching=True, cache=cache)
    )
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/dry")
        for rep in range(2):
            yield from client.read(f, 0, 256 * 1024)
            for i in range(48):
                yield from client.read(f, i * 4096, 4096)

    env = cluster.env
    env.run(until=env.process(app(env)))
    assert cluster.cache_modules["node0"].manager.freelist.allocation_waits
    return cluster


def _open_loop_write_point(region=None):
    """Open-loop write-behind on a small cluster with separate iods:
    every op opens a fresh file at the mgr and writes 4 KB through its
    node's cache, and the flusher ships the dirty blocks in batches
    (the message path of ``meta_openloop``: connection set-up, mgr
    dispatch, inbox puts, routed responses and flush acks).  ``region``
    is entered around the replay and the drain, not the set-up."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig
    from repro.workload.openloop import OpenLoopParams, generate
    from repro.workload.replay import TraceReplayer

    params = OpenLoopParams(
        processes=4,
        duration_s=0.1,
        rate_ops_s=400.0,
        churn=1.0,
        read_fraction=0.0,
        write_fraction=1.0,
        seed=7,
    )
    cluster = Cluster(
        ClusterConfig(compute_nodes=4, iod_nodes=2, separate_iod_nodes=True)
    )
    trace = generate(params)
    env = cluster.env
    with region if region is not None else contextlib.nullcontext():
        TraceReplayer(cluster, trace).run()
        env.run(until=env.process(cluster.drain_caches()))
    counters = cluster.metrics.counters
    assert counters["mgr.opens"] == counters["client.writes"] > 0
    assert counters["flusher.batches"] > 0
    return cluster


@pytest.mark.parametrize(
    "scenario",
    [
        lambda: _fig4_read_point(4096),
        _sync_write_chain,
        _dry_free_list,
        _open_loop_write_point,
    ],
    ids=[
        "fig4-read",
        "write-sync-write-remote-reader",
        "dry-free-list",
        "open-loop-write-behind",
    ],
)
def test_in_place_turns_are_schedule_neutral(scenario, monkeypatch):
    """The same run with every in-place turn refused (the free list's
    gets, and the inbox and routed-response puts of message stages):
    same schedule hash, event count, depth high-water mark and
    Metrics, counter by counter."""
    monkeypatch.setenv("REPRO_TRACE_HASH", "1")
    with_turns = scenario()
    assert with_turns.env.sched_stats()["turns_in_place"] > 0
    monkeypatch.setattr(Environment, "take_turn", lambda self, kind, n=1: False)
    without = scenario()
    assert without.env.sched_stats()["turns_in_place"] == 0
    assert _footprint(with_turns) == _footprint(without)


def test_turns_in_place_share_of_the_fig4_64k_read_point():
    """The host-independent companion of the miss path's host time:
    at least a fifth of the events of a fig4 d = 64 KB read point are
    StoreGet steps taken in place."""
    stats = _fig4_read_point(64 * 1024).env.sched_stats()
    assert stats["turns_in_place"] >= 0.2 * stats["events_processed"]


#: Python calls per read of the fig4 d = 64 KB read point, set-up
#: included, measured when the miss path became runs and callback
#: stages (940.5 before), and the point's scheduler events.
FIG4_64K_CALLS_PER_READ = 655.8
FIG4_64K_EVENTS = 1017


def test_python_calls_of_the_fig4_64k_read_point():
    """A host-independent guard on the miss path's cost: the Python
    calls (``sys.setprofile`` ``call`` events, generator resumes
    included) per read stay within 10 % of the figure above, with the
    schedule's event count exactly as it was."""
    _fig4_read_point(64 * 1024)  # imports and caches warmed: count steady state
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        cluster = _fig4_read_point(64 * 1024)
    finally:
        sys.setprofile(None)
    reads = cluster.metrics.counters["client.reads"]
    assert reads == 16
    assert calls / reads <= FIG4_64K_CALLS_PER_READ * 1.10
    assert cluster.env.sched_stats()["events_processed"] == FIG4_64K_EVENTS


#: Python calls per op of the open-loop write point's replay and drain,
#: measured when a message's inbox relay was taken in place and the
#: flush ack became a callback stage (290.2 before), and the point's
#: scheduler events (1209 before the iod's writeback became dirty pages
#: written in runs, which left 236.8 calls per op).
OPEN_LOOP_WRITE_CALLS_PER_OP = 242.2
OPEN_LOOP_WRITE_EVENTS = 1162


class _CountCalls:
    """Counts ``sys.setprofile`` ``call`` events (generator resumes
    included) while entered."""

    def __init__(self):
        self.calls = 0

    def _count(self, _frame, event, _arg):
        if event == "call":
            self.calls += 1

    def __enter__(self):
        sys.setprofile(self._count)

    def __exit__(self, *exc):
        sys.setprofile(None)


def test_python_calls_of_an_open_loop_write_point():
    """A host-independent guard on the message path's cost, as the
    fig4 guard above is on the miss path's: the Python calls per op of
    the open-loop write point stay within 10 % of the figure above,
    with the schedule's event count exactly as it was."""
    _open_loop_write_point()  # imports and caches warmed
    counter = _CountCalls()
    cluster = _open_loop_write_point(region=counter)
    ops = cluster.metrics.counters["client.writes"]
    assert counter.calls / ops <= OPEN_LOOP_WRITE_CALLS_PER_OP * 1.10
    assert cluster.env.sched_stats()["events_processed"] == OPEN_LOOP_WRITE_EVENTS


# -- runs, not blocks: the run probe and the batch eviction -----------------


def _cluster(cache_blocks=16, compute_nodes=1, **cache_kwargs):
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig

    cache = CacheConfig(size_bytes=cache_blocks * 4096, **cache_kwargs)
    return Cluster(
        ClusterConfig(
            compute_nodes=compute_nodes, iod_nodes=2, caching=True, cache=cache
        )
    )


def _run_apps(cluster, *apps):
    env = cluster.env
    client = cluster.client("node0")
    procs = [env.process(app(env, client)) for app in apps]
    env.run(until=env.all_of(procs))
    return cluster


def _crossing_low_blocks():
    """A 16-block segment into a 16-block cache: the run takes frames
    until the next take would fall to low_blocks, and the rest of the
    segment allocates through the harvester."""
    cluster = _cluster(16, segment_blocks=16)

    def app(env, client):
        f = yield from client.open("/low")
        for rep in range(3):
            yield from client.read(f, rep * 64 * 1024, 64 * 1024)

    return _run_apps(cluster, app)


def _cut_runs(**cache_kwargs):
    """Runs cut short by a resident block, by a PENDING block (a
    neighbour's fetch in flight) and by a rival's reservation (held
    while the rival waits on a free list that a whole-cache read pinned
    dry)."""
    cluster = _cluster(32, segment_blocks=16, **cache_kwargs)
    kb4 = 4096

    def app(env, client):
        files = []
        for path in ("/a", "/b", "/c", "/d"):
            files.append((yield from client.open(path)))
        a, b, c, d = files

        def read_at(t, f, first, n):
            yield env.timeout(t - env.now)
            yield from client.read(f, first * kb4, n * kb4)

        def resident():
            yield from client.read(a, 4 * kb4, kb4)
            yield from client.read(a, 0, 8 * kb4)

        yield env.all_of(
            [
                env.process(resident()),
                env.process(read_at(1.0, b, 12, 4)),
                env.process(read_at(1.0002, b, 8, 8)),  # 12.. in flight
                env.process(read_at(2.0, c, 0, 32)),  # pins every frame
                env.process(read_at(2.004, d, 0, 1)),  # reserves (d, 0)
                env.process(read_at(2.005, d, 0, 4)),
            ]
        )

    return _run_apps(cluster, app)


def _record_run_ends(monkeypatch, probe):
    """Wrap ``probe`` (behaviour unchanged) to record why each run that
    took at least one frame ended, and each run cut at its first
    block by a rival's reservation."""
    ends = []

    def recording(self, file_id, block_nos, i=0):
        fresh, block, resident = probe(self, file_id, block_nos, i)
        end = i + len(fresh)
        if end == len(block_nos):
            return fresh, block, resident
        if block is not None:
            reason = (
                "pending" if block.state is BlockState.PENDING else "resident"
            )
        elif (file_id, block_nos[end]) in self._inflight:
            reason = "reservation"
        else:
            reason = "no-frame"
        if fresh or reason == "reservation":
            ends.append(reason)
        return fresh, block, resident

    monkeypatch.setattr(BufferManager, "probe", recording)
    return ends


def _runs_of_one(monkeypatch):
    """Patch the run calls so every call handles one block."""
    probe = BufferManager.probe
    evict = BufferManager.evict

    def probe_one(self, file_id, block_nos, i=0):
        fresh, block, resident = probe(self, file_id, block_nos[: i + 1], i)
        if not fresh or i + 1 == len(block_nos):
            return fresh, block, resident
        more, block, resident = probe_one(self, file_id, block_nos, i + 1)
        return [*fresh, *more], block, resident

    def evict_one(self, blocks, force=False):
        for block in list(blocks):
            evict(self, (block,), force)

    monkeypatch.setattr(BufferManager, "evict", evict_one)
    return probe_one


@pytest.mark.parametrize(
    "scenario, must_end_on",
    [
        (lambda: _fig4_read_point(4096), ()),
        (_sync_write_chain, ()),
        (_dry_free_list, ("no-frame",)),
        (lambda: _dry_free_list(replacement="exact-lru"), ("no-frame",)),
        (_crossing_low_blocks, ("no-frame",)),
        (_cut_runs, ("resident", "pending", "reservation")),
        (
            lambda: _cut_runs(split_on_cached_block=False),
            ("resident", "pending", "reservation"),
        ),
    ],
    ids=[
        "fig4-read",
        "write-sync-write-remote-reader",
        "dry-free-list",
        "exact-lru",
        "run-crosses-low-blocks",
        "runs-cut-by-resident-pending-reservation",
        "no-split-on-cached-block",
    ],
)
def test_runs_are_schedule_neutral(scenario, must_end_on, monkeypatch):
    """The same run with every probe and eviction a run of one: same
    schedule hash, event count, in-place turns, depth high-water mark
    and Metrics, counter by counter."""
    monkeypatch.setenv("REPRO_TRACE_HASH", "1")
    ends = _record_run_ends(monkeypatch, BufferManager.probe)
    runs = scenario()
    for reason in must_end_on:
        assert reason in ends, (reason, ends)
    turns = runs.env.sched_stats()["turns_in_place"]
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_TRACE_HASH", "1")
    _record_run_ends(monkeypatch, _runs_of_one(monkeypatch))
    blocks = scenario()
    assert blocks.env.sched_stats()["turns_in_place"] == turns
    assert _footprint(runs) == _footprint(blocks)
