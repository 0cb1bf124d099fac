"""Unit tests for the BufferManager."""

import pytest

from repro.cache.block import BlockState
from repro.cache.manager import BufferManager
from repro.cluster.config import CacheConfig
from repro.metrics import Metrics
from repro.sim import Environment


def _manager(n_blocks=8, replacement="clock"):
    env = Environment()
    config = CacheConfig(
        size_bytes=n_blocks * 4096,
        block_size=4096,
        replacement=replacement,
        low_watermark=0.25,
        high_watermark=0.5,
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
        block.make_ready()
        m.evict(block)
        assert m.n_free == 8
        assert m.lookup((1, 0)) is None
        assert block.state is BlockState.FREE

    p = env.process(proc(env))
    env.run()
    assert p.ok


def test_evict_guards():
    env, m = _manager()

    def proc(env):
        block, _ = yield from m.get_or_allocate((1, 0))
        block.make_ready()
        block.pin()
        with pytest.raises(ValueError):
            m.evict(block)
        block.unpin()
        block.write(0, 10, None)
        m.note_write(block)
        with pytest.raises(ValueError):
            m.evict(block)  # dirty without force
        m.evict(block, force=True)
        assert block.state is BlockState.FREE
        free = [b for b in m.blocks if b.state is BlockState.FREE][0]
        with pytest.raises(ValueError):
            m.evict(free)

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value


def test_invalidate_semantics():
    env, m = _manager()

    def proc(env):
        assert m.invalidate((9, 9)) is False  # absent
        block, _ = yield from m.get_or_allocate((1, 0))
        # PENDING: doomed, so the fetch path discards the in-flight
        # fill instead of publishing possibly-stale bytes.
        assert m.invalidate((1, 0)) is True
        assert block.doomed
        block.make_ready()
        # pinned: deferred
        block.pin()
        assert m.invalidate((1, 0)) is True
        assert block.doomed
        assert m.lookup((1, 0)) is block  # still resident while pinned
        m.unpin(block)
        assert m.lookup((1, 0)) is None  # dropped at unpin
        # plain resident: immediate
        block2, _ = yield from m.get_or_allocate((1, 1))
        block2.make_ready()
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


def test_allocation_exhaustion_waits_for_eviction():
    env, m = _manager(n_blocks=2)
    log = []

    def filler(env):
        b0, _ = yield from m.get_or_allocate((1, 0))
        b1, _ = yield from m.get_or_allocate((1, 1))
        b0.make_ready()
        b1.make_ready()
        log.append(("filled", env.now))
        yield env.timeout(10)
        m.evict(b0)
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
            block.make_ready()

    env.process(proc(env))
    env.run()
    assert m.resident_keys() == {(1, 0), (1, 1), (1, 2)}


def test_select_victims_passthrough():
    env, m = _manager()

    def proc(env):
        for i in range(4):
            block, _ = yield from m.get_or_allocate((1, i))
            block.make_ready()
            block.refbit = False

    env.process(proc(env))
    env.run()
    victims = m.select_victims(2)
    assert len(victims) == 2


# -- in-place turns: the probe's synchronous allocation ----------------------


def test_probe_allocates_in_place_inside_a_run():
    env, m = _manager()
    got = {}

    def proc(env):
        yield env.timeout(1)
        got["miss"] = m.probe((1, 0))
        got["hit"] = m.probe((1, 0))

    env.process(proc(env))
    env.run()
    block, resident = got["miss"]
    assert resident is False and block.state is BlockState.PENDING
    assert got["hit"] == (block, True)
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
            got.append(m.probe((1, i))[0] is not None)
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
        got.append(m.probe((1, 0)))
        block, resident = yield from m.get_or_allocate((1, 0))
        got.append((block, resident))

    env.process(rival(env))
    env.process(prober(env))
    env.run()
    # the rival's reservation is pending when the prober starts
    assert got[0] == (None, False)
    assert got[1][1] is True
    assert m.metrics.count("cache.allocations") == 1


def _footprint(cluster):
    env = cluster.env
    stats = env.sched_stats()
    return (
        env.trace_hash(),
        stats["events_processed"],
        stats["queue_depth_hw"],
        # every counter but the one that tells the two runs apart
        {
            k: v
            for k, v in cluster.metrics.counters.items()
            if k != "sim.turns_in_place"
        },
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


def _dry_free_list():
    from tests.conftest import make_cluster

    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=16)
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


@pytest.mark.parametrize(
    "scenario",
    [
        lambda: _fig4_read_point(4096),
        _sync_write_chain,
        _dry_free_list,
    ],
    ids=["fig4-read", "write-sync-write-remote-reader", "dry-free-list"],
)
def test_in_place_turns_are_schedule_neutral(scenario, monkeypatch):
    """The same run with every in-place turn refused: same schedule
    hash, event count, depth high-water mark and Metrics, counter by
    counter."""
    from repro.analysis.reset import reset_all

    monkeypatch.setenv("REPRO_TRACE_HASH", "1")
    with_turns = scenario()
    assert with_turns.env.sched_stats()["turns_in_place"] > 0
    monkeypatch.setattr(Environment, "take_turn", lambda self, kind: False)
    reset_all()  # message and connection ids restart, as in a new process
    without = scenario()
    assert without.env.sched_stats()["turns_in_place"] == 0
    assert _footprint(with_turns) == _footprint(without)


def test_turns_in_place_share_of_the_fig4_64k_read_point():
    """The host-independent companion of the miss path's host time:
    at least a fifth of the events of a fig4 d = 64 KB read point are
    StoreGet steps taken in place."""
    stats = _fig4_read_point(64 * 1024).env.sched_stats()
    assert stats["turns_in_place"] >= 0.2 * stats["events_processed"]
