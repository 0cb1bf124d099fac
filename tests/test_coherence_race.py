"""Regression tests for two races the flow analyzer surfaced.

1. A ``sync_write`` invalidation arriving while the target block is
   PENDING (fetch in flight) used to be skipped entirely, leaving the
   just-fetched — and possibly stale — bytes resident forever.  The
   fix dooms the PENDING block so the fetch path discards it.
2. The iod's ``_invalidate_sharers`` used to iterate the raw sharer
   set, tying the invalidation packet order (and every downstream
   event) to the string hash seed.

And, pinned as expected failures until the coherence PR (ROADMAP item
1(a)): the iod registers a sharer only on a cache-originated *read*,
so a node whose copy came from its own write is invisible to the
next ``sync_write``.
"""

import types

import pytest

from repro.cache.block import BlockState
from tests.conftest import bare_iod, make_cluster, run_app


def test_pending_invalidate_discards_in_flight_fetch(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1")
    cluster = make_cluster()
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
    manager.sanitizer.check()


def test_invalidation_fanout_order_is_hash_independent():
    """Sharers must be invalidated in sorted order, whatever order
    the directory met them in (it iterates a dict, and a set before
    that)."""
    sharers = [f"node-{c}" for c in "zyxwvutsrqponmlkjihgfedcba"]
    iod = bare_iod()
    for name in ["node-m", "writer", *sharers]:
        iod.directory.note(7, 0, 1, name)
    req = types.SimpleNamespace(
        file_id=7, ranges=[(0, 4096)], requester_node="writer"
    )
    for _ in iod._invalidate_sharers(req):
        pass
    assert iod.sent == [(name, [0]) for name in sorted(sharers)]
    # the writer's own (current) copy survives in the directory
    assert iod.directory.sharers(7, 0) == {"writer"}


# -- a copy that came from a write is not in the directory ----------------


def _block(byte):
    return byte * 4096


@pytest.mark.xfail(
    strict=True,
    reason="iod never registers the node of a flushed write as a sharer "
    "(ROADMAP 1(a): SharerDirectory.note in Iod._handle_flush)",
)
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


@pytest.mark.xfail(
    strict=True,
    reason="iod never registers a sync_write's own node as a sharer "
    "(ROADMAP 1(a): SharerDirectory.note in Iod._invalidate_sharers)",
)
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
