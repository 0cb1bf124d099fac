"""Tests for the flusher and harvester kernel threads."""

import pytest

from repro.cache.block import BlockState
from tests.conftest import make_cluster, run_app


def _dirty_some(cluster, client, nbytes, path="/f"):
    """Generator: write nbytes through the cache, return handle."""

    def gen(env):
        f = yield from client.open(path)
        yield from client.write(f, 0, nbytes, None)
        return f

    return gen(cluster.env)


# -- flusher -------------------------------------------------------------------


def test_flusher_periodic_writeback():
    cluster = make_cluster()
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 16384, b"x" * 16384)
        assert module.manager.n_dirty == 4
        yield env.timeout(module.config.flush_period_s * 2.5)
        assert module.manager.n_dirty == 0
        # the bytes are now at the iods, visible to raw readers
        raw = cluster.client("node1", use_cache=False)
        data = yield from raw.read(f, 0, 16384, want_data=True)
        assert data == b"x" * 16384

    run_app(cluster, app(cluster.env))


def test_flusher_coalesces_contiguous_blocks():
    cluster = make_cluster(iod_nodes=1, compute_nodes=1)
    client = cluster.client("node0")
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        # 8 contiguous blocks: one flush batch with ONE entry
        yield from client.write(f, 0, 32768, None)
        module = cluster.cache_modules["node0"]
        yield from module.flusher.drain()
        assert m.count("flusher.batches") == 1
        batches = m.count("iod.flush_batches")
        assert batches == 1

    run_app(cluster, app(cluster.env))


def test_flusher_respects_dirty_epoch_races():
    cluster = make_cluster()
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 4096, b"1" * 4096)
        # Start a flush round, then rewrite the block mid-flight.
        flush = env.process(module.flusher.flush_round())
        yield from client.write(f, 0, 4096, b"2" * 4096)
        yield flush
        block = module.manager.table.get((f.file_id, 0))
        # the raced write must keep the block dirty
        assert block.state is BlockState.DIRTY
        yield from module.flusher.drain()
        assert module.manager.n_dirty == 0
        raw = cluster.client("node1", use_cache=False)
        data = yield from raw.read(f, 0, 4096, want_data=True)
        assert data == b"2" * 4096

    run_app(cluster, app(cluster.env))


def test_flusher_drain_empties():
    cluster = make_cluster()
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        yield from _dirty_some_inline(env)

    def _dirty_some_inline(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 65536, None)
        yield from module.flusher.drain()
        assert module.manager.n_dirty == 0

    run_app(cluster, app(cluster.env))


def test_flush_round_empty_is_noop():
    cluster = make_cluster()
    module = cluster.cache_modules["node0"]

    def app(env):
        cleaned = yield from module.flusher.flush_round()
        assert cleaned == 0

    run_app(cluster, app(cluster.env))


def test_flusher_no_duplicate_shipping():
    cluster = make_cluster()
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]
    m = cluster.metrics

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 8192, None)
        # two concurrent flush requests for the same blocks
        p1 = env.process(module.flusher.flush_round())
        p2 = env.process(module.flusher.flush_round())
        yield env.all_of([p1, p2])
        # 8 KB written once, not twice
        assert m.count("flusher.bytes") == 8192

    run_app(cluster, app(cluster.env))


# -- harvester -----------------------------------------------------------------


def test_harvester_maintains_watermarks():
    cluster = make_cluster(cache_blocks=32)
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        f = yield from client.open("/f")
        for i in range(16):
            yield from client.read(f, i * 16384, 16384)
        # give the harvester a moment to settle
        yield env.timeout(0.05)
        assert len(module.manager.freelist) >= module.config.low_blocks

    run_app(cluster, app(cluster.env))
    assert cluster.metrics.count("harvester.freed") > 0
    assert cluster.metrics.count("harvester.activations") > 0


def test_harvester_flushes_dirty_victims():
    """When everything is dirty, the harvester must flush then free."""
    cluster = make_cluster(cache_blocks=16)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        # write 4x the cache without ever reading: all blocks dirty
        yield from client.write(f, 0, 64 * 4096, None)

    run_app(cluster, app(cluster.env))
    assert cluster.metrics.count("harvester.dirty_flushes") > 0
    assert cluster.metrics.count("cache.evictions") > 0


def test_harvester_prefers_clean_victims():
    cluster = make_cluster(cache_blocks=16)
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]

    def app(env):
        f = yield from client.open("/f")
        # 8 clean blocks (read) + 4 dirty (written, not yet flushed)
        yield from client.read(f, 0, 8 * 4096)
        yield from client.write(f, 16 * 4096, 4 * 4096, None)
        # age the refbits so the clock can evict
        for b in module.manager.blocks:
            b.refbit = False
        victims = module.manager.select_victims(4)
        assert all(v.state is BlockState.CLEAN for v in victims)

    run_app(cluster, app(cluster.env))


def test_harvester_wake_is_idempotent():
    cluster = make_cluster()
    module = cluster.cache_modules["node0"]
    module.harvester.wake()
    module.harvester.wake()  # second wake while already triggered

    def app(env):
        yield env.timeout(0.01)

    run_app(cluster, app(cluster.env))


def test_harvester_rechecks_clean_victims_after_the_flush_hand_off():
    """Handing dirty victims to the flusher yields, and while the
    harvester is suspended an application may pin one of its clean
    victims.  The clean batch must be chosen after that yield: a batch
    built before it would evict a pinned block, which ``evict``
    refuses with an error that crashes the harvester."""
    cluster = make_cluster(cache_blocks=16, iod_nodes=1, compute_nodes=1)
    client = cluster.client("node0")
    module = cluster.cache_modules["node0"]
    manager, flusher = module.manager, module.flusher
    victims, pinned = [], []

    select_victims = manager.select_victims
    initiate_flush = flusher.initiate_flush

    def spy_select_victims(n):
        victims[:] = select_victims(n)
        return victims

    def pin_inside_flush(blocks):
        if not pinned:
            clean = [b for b in victims if b.state is BlockState.CLEAN]
            if clean:
                clean[0].pins += 1
                pinned.append((clean[0], clean[0].key))
        return (yield from initiate_flush(blocks))

    manager.select_victims = spy_select_victims
    flusher.initiate_flush = pin_inside_flush

    def app(env):
        f = yield from client.open("/f")
        # 2 clean blocks, then dirty ones until the free list runs dry:
        # the harvester's victims are the clean pair plus dirty blocks.
        yield from client.read(f, 0, 2 * 4096)
        yield from client.write(f, 2 * 4096, 14 * 4096, None)
        yield env.timeout(0.05)

    run_app(cluster, app(cluster.env))
    assert pinned, "the harvester never handed a mixed batch to the flusher"
    block, key = pinned[0]
    assert block.key == key and manager.table.get(key) is block
    assert block.state is BlockState.CLEAN and block.pins == 1
    assert cluster.metrics.count("harvester.dirty_flushes") > 0


def test_harvester_leaves_a_clean_block_under_write_back():
    """A later ``sync_write`` of a block can be acked before an earlier
    one that spans more iods, which leaves the block CLEAN but still
    marked.  The harvester must leave such a victim alone: ``evict``
    refuses it, and the crash would take the harvester down."""
    cluster = make_cluster(cache_blocks=32, iod_nodes=1, compute_nodes=1)
    client = cluster.client("node0")
    manager = cluster.cache_modules["node0"].manager

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 8 * 4096)
        marked = [manager.table.get((f.file_id, b)) for b in range(8)]
        for block in marked:
            assert block.state is BlockState.CLEAN
            block.writeback += 1  # an earlier sync_write's ack is out
        # Reading on dries the free list: the harvester evicts around
        # the marked blocks.
        for b in range(8, 64):
            yield from client.read(f, b * 4096, 4096)
        assert [manager.table.get((f.file_id, b)) for b in range(8)] == marked
        for block in marked:
            manager.end_writeback(block)
        return cluster.metrics.count("harvester.freed")

    assert run_app(cluster, app(cluster.env)) > 0
