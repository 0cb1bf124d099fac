"""Regression tests for coherence races found during development.

1. A ``sync_write`` invalidation arriving while the target block is
   PENDING (fetch in flight) used to be skipped entirely, leaving the
   just-fetched — and possibly stale — bytes resident forever.  The
   fix dooms the PENDING block so the fetch path discards it.
2. The iod's ``_invalidate_sharers`` used to iterate the raw sharer
   set, tying the invalidation packet order (and every downstream
   event) to the string hash seed.  The unit test here pins the
   order; ``tests/test_determinism.py`` runs a whole coherent
   scenario under several ``PYTHONHASHSEED`` values.
3. The iod registered a sharer only on a cache-originated *read*, so
   a node whose copy came from its own flushed write or its own
   ``sync_write`` was invisible to the next ``sync_write``.
4. A ``sync_write`` could complete while an older flush batch still
   carried the block's previous bytes; the batch's late entry then
   overwrote the new bytes at the iod.  A ``sync_write`` now waits
   for the in-flight batches of the blocks it wrote.
5. The iod spared the writer's node from a ``sync_write``'s
   invalidations even when the write came from a no-cache client, so
   that node's cached copy kept the old bytes.  A copy that node held
   dirty was not invalidated, and its later flush overwrote the raw
   write at the iod; the node now writes it back first.
6. A cached ``sync_write`` left its blocks DIRTY and unmarked on the
   dirty list while its write-through was on the wire, so a flush
   round in that window shipped the same bytes again.  The
   write-through now holds the blocks' write-back mark, which the
   flusher skips.
"""

import types

from repro.cache.block import BlockState
from repro.disk.filesystem import blocks_spanned
from tests.conftest import (
    bare_iod,
    check_invariants_every,
    make_cluster,
    run_app,
)


def test_pending_invalidate_discards_in_flight_fetch():
    cluster = make_cluster()
    check_invariants_every(cluster, 1)
    client = cluster.client("node0")
    manager = cluster.cache_modules["node0"].manager
    metrics = cluster.metrics
    env = cluster.env

    def invalidator(env, key):
        # wait until the demand fetch has allocated the PENDING block
        for _ in range(100_000):
            block = manager.table.get(key)
            if block is not None and block.state is BlockState.PENDING:
                break
            yield env.timeout(1e-7)
        else:
            raise AssertionError("fetch never left a PENDING block")
        # the racing coherence message: must doom, not skip
        assert manager.invalidate(key) is True
        assert block.doomed

    def app(env):
        f = yield from client.open("/raced")
        key = (f.file_id, 0)
        racer = env.process(invalidator(env, key))
        yield from client.read(f, 0, 4096)
        yield racer
        # the doomed block was discarded, not published
        assert manager.table.get(key) is None
        assert metrics.count(f"{manager.name}.deferred_invalidations") == 1
        # a re-read must go back to the iod instead of hitting the
        # stale snapshot (the old behaviour: permanent stale hit)
        misses = metrics.count("cache.misses")
        yield from client.read(f, 0, 4096)
        assert metrics.count("cache.misses") == misses + 1

    run_app(cluster, app(cluster.env))
    manager.check_invariants()


def test_invalidation_fanout_order_is_hash_independent():
    """Sharers must be invalidated in sorted order, whatever order
    the directory met them in (it iterates a dict, and a set before
    that)."""
    sharers = [f"node-{c}" for c in "zyxwvutsrqponmlkjihgfedcba"]
    iod = bare_iod()
    for name in ["node-m", "writer", *sharers]:
        iod.directory.note(7, 0, 1, name)
    req = types.SimpleNamespace(
        file_id=7, ranges=[(0, 4096)], requester_node="writer", from_cache=True
    )
    for _ in iod._invalidate_sharers(req):
        pass
    assert iod.sent == [(name, [0]) for name in sorted(sharers)]
    # the writer's own (current) copy survives in the directory
    assert iod.directory.sharers(7, 0) == {"writer"}


# -- a copy that came from a write is in the directory ---------------------


def _block(byte):
    return byte * 4096


def test_sync_write_invalidates_a_copy_made_by_a_buffered_write():
    cluster = make_cluster()
    writer, syncer = cluster.client("node0"), cluster.client("node1")

    def app(env):
        f = yield from writer.open("/f")
        yield from writer.write(f, 0, 4096, _block(b"A"))
        yield from cluster.drain_caches()
        g = yield from syncer.open("/f")
        yield from syncer.sync_write(g, 0, 4096, _block(b"B"))
        return (yield from writer.read(f, 0, 4096, want_data=True))

    assert run_app(cluster, app(cluster.env)) == _block(b"B")


def test_sync_write_invalidates_a_copy_made_by_an_earlier_sync_write():
    cluster = make_cluster()
    first, second = cluster.client("node1"), cluster.client("node0")

    def app(env):
        f = yield from first.open("/f")
        yield from first.sync_write(f, 0, 4096, _block(b"A"))
        g = yield from second.open("/f")
        yield from second.sync_write(g, 0, 4096, _block(b"B"))
        return (yield from first.read(f, 0, 4096, want_data=True))

    assert run_app(cluster, app(cluster.env)) == _block(b"B")


# -- a flush batch in flight must not outlive a sync_write ----------------


def _sync_after_buffered_writes(delay_s):
    """node0 dirties blocks 0, 2, ..., 30, waits ``delay_s``, then
    ``sync_write``s block 30; node1 then reads block 30."""
    cluster = make_cluster(cache_blocks=64)
    writer, reader = cluster.client("node0"), cluster.client("node1")

    def app(env):
        f = yield from writer.open("/f")
        for block in range(0, 32, 2):
            yield from writer.write(f, block * 4096, 4096, _block(b"A"))
        yield env.timeout(delay_s)
        yield from writer.sync_write(f, 30 * 4096, 4096, _block(b"B"))
        g = yield from reader.open("/f")
        return (yield from reader.read(g, 30 * 4096, 4096, want_data=True))

    return run_app(cluster, app(cluster.env))


def test_sync_write_waits_for_the_flush_batch_in_flight():
    """Scanned across the flusher's period: at some delays a batch
    holding block 30's old bytes is on the wire when the sync_write
    starts (28 ms returned the old bytes before the fix)."""
    stale = [
        step / 2
        for step in range(120)
        if _sync_after_buffered_writes(step / 2 * 1e-3) != _block(b"B")
    ]
    assert stale == []


# -- a raw sync_write passes its own node's cache by ------------------------


def test_raw_sync_write_invalidates_its_own_nodes_cached_copy():
    """node0's cached client writes A through and reads it back; a
    no-cache client on node0 (the shell's kind) then ``sync_write``s B.
    The iod used to spare the requester's node whatever the path, so
    the cached read kept returning A."""
    cluster = make_cluster()
    cached = cluster.client("node0")
    raw = cluster.client("node0", use_cache=False)

    def app(env):
        f = yield from cached.open("/f")
        yield from cached.sync_write(f, 0, 4096, _block(b"A"))
        assert (yield from cached.read(f, 0, 4096, want_data=True)) == _block(b"A")
        g = yield from raw.open("/f")
        yield from raw.sync_write(g, 0, 4096, _block(b"B"))
        got = yield from cached.read(f, 0, 4096, want_data=True)
        return got, (yield from raw.read(g, 0, 4096, want_data=True))

    assert run_app(cluster, app(cluster.env)) == (_block(b"B"), _block(b"B"))


def _dirty_then_raw_sync_write(cluster, drain):
    """node0's cached client buffers A; a no-cache client on node0 then
    ``sync_write``s B.  Returns the cached and the raw read, and, if
    ``drain``, the raw read after node0's caches are flushed."""
    cached = cluster.client("node0")
    raw = cluster.client("node0", use_cache=False)

    def app(env):
        f = yield from cached.open("/f")
        yield from cached.write(f, 0, 4096, _block(b"A"))
        g = yield from raw.open("/f")
        yield from raw.sync_write(g, 0, 4096, _block(b"B"))
        got = [
            (yield from cached.read(f, 0, 4096, want_data=True)),
            (yield from raw.read(g, 0, 4096, want_data=True)),
        ]
        if drain:
            yield from cluster.drain_caches()
            got.append((yield from raw.read(g, 0, 4096, want_data=True)))
        return tuple(got)

    return run_app(cluster, app(cluster.env))


def test_raw_sync_write_flushes_its_own_nodes_dirty_copy_first():
    """The iod cannot know of a dirty copy it was never sent, so node0's
    cache module writes its buffered A back before the raw sync_write
    goes through.  The raw write's invalidation then drops node0's
    now-clean copy: both reads return B."""
    assert _dirty_then_raw_sync_write(make_cluster(), drain=False) == (
        _block(b"B"), _block(b"B"),
    )


def test_raw_sync_write_survives_its_own_nodes_later_flush():
    """After node0 drains, the iod still holds B, the newer write: the
    older buffered A reached it first."""
    got = _dirty_then_raw_sync_write(make_cluster(), drain=True)
    assert got[2] == _block(b"B")


# -- a block's write-through is not shipped again by the flusher ----------


def _flushed_during_write_through(start_s):
    """node0 ``sync_write``s block 0 at ``start_s``; the flusher's first
    round comes due at 30 ms.  Returns the simulated window in which
    the write-through was on the wire, and the blocks a flush batch
    shipped inside it."""
    cluster = make_cluster()
    module = cluster.cache_modules["node0"]
    flusher = module.flusher
    writer = cluster.client("node0")
    env = cluster.env
    bs = module.block_size
    on_wire: set[tuple[int, int]] = set()
    window = []
    shipped = []
    propagate = module._propagate_sync
    coalesce = flusher._coalesce

    def watched_propagate(handle, offset, nbytes, data, request_base):
        keys = {(handle.file_id, b) for b in blocks_spanned(offset, nbytes, bs)}
        on_wire.update(keys)
        window.append(env.now)
        yield from propagate(handle, offset, nbytes, data, request_base)
        window.append(env.now)
        on_wire.difference_update(keys)

    def watched_coalesce(fragments):
        for file_id, off, n, _data in fragments:
            for b in blocks_spanned(off, n, bs):
                if (file_id, b) in on_wire:
                    shipped.append((file_id, b))
        return coalesce(fragments)

    module._propagate_sync = watched_propagate
    flusher._coalesce = watched_coalesce

    def app(env):
        f = yield from writer.open("/f")
        yield env.timeout(start_s - env.now)
        yield from writer.sync_write(f, 0, 4096, _block(b"B"))
        yield env.timeout(0.01)

    run_app(cluster, app(env))
    return tuple(window), shipped


def test_no_flush_batch_ships_a_block_whose_sync_write_is_in_flight():
    """The flusher's round comes due while node0's write-through of
    block 0 is on the wire.  The block is DIRTY but marked, so the
    round skips it; shipped again, its bytes would be a second copy on
    the wire, and with a sync_write from another node landing in
    between, that batch would overwrite the newer bytes at the iod."""
    runs = [_flushed_during_write_through(t * 1e-4) for t in range(285, 300)]
    if not any(start < 0.030 < end for (start, end), _ in runs):
        raise RuntimeError("no write-through spans the flusher's round")
    assert [shipped for _, shipped in runs if shipped] == []


# -- a re-write while the block's flush batch is in flight ----------------


def _rewrite_during_flush(delay_s):
    """node0 buffers A in block 0 and ships it in a flush batch; while
    that batch is on the wire it buffers B over it, waits ``delay_s``
    and ``sync_write``s C.  Returns what a cached reader on node1 then
    reads, what a raw reader reads once node0 has drained (the iod's
    bytes), and whether the batch was still in flight at the buffered
    and at the synchronous re-write."""
    cluster = make_cluster()
    check_invariants_every(cluster, 1)
    module = cluster.cache_modules["node0"]
    writer, reader = cluster.client("node0"), cluster.client("node1")
    raw = cluster.client("node1", use_cache=False)

    def app(env):
        f = yield from writer.open("/f")
        yield from writer.write(f, 0, 4096, _block(b"A"))
        block = module.manager.table.get((f.file_id, 0))
        yield from module.flusher.initiate_flush([block])
        in_flight = [block.flushing]
        yield from writer.write(f, 0, 4096, _block(b"B"))
        yield env.timeout(delay_s)
        in_flight.append(block.flushing)
        yield from writer.sync_write(f, 0, 4096, _block(b"C"))
        g = yield from reader.open("/f")
        remote = yield from reader.read(g, 0, 4096, want_data=True)
        yield from cluster.drain_caches()
        h = yield from raw.open("/f")
        at_iod = yield from raw.read(h, 0, 4096, want_data=True)
        return remote, at_iod, tuple(in_flight)

    return run_app(cluster, app(cluster.env))


def test_a_rewrite_during_its_flush_batch_reaches_reader_and_iod():
    """The shape the benchmark's coherent workload keeps its writer off
    (writer locality 0).  Scanned across the batch's ack, so that the
    sync_write starts both while A's batch is on the wire and after:
    the newest bytes, C, reach the remote reader and the iod."""
    runs = [_rewrite_during_flush(step * 10e-6) for step in range(12)]
    assert {in_flight for _, _, in_flight in runs} == {
        (True, True), (True, False),
    }
    assert {(remote, at_iod) for remote, at_iod, _ in runs} == {
        (_block(b"C"), _block(b"C"))
    }
