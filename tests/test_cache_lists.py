"""Unit tests for the free list and dirty list."""

import pytest

from repro.cache.block import BlockState, CacheBlock
from repro.cache.dirtylist import DirtyList
from repro.cache.freelist import FreeList
from repro.sim import Environment


def _blocks(env, n):
    return [CacheBlock(i, 4096) for i in range(n)]


# -- FreeList ------------------------------------------------------------


def test_freelist_initial_count():
    env = Environment()
    fl = FreeList(env, _blocks(env, 10), low_blocks=2, high_blocks=5)
    assert len(fl) == 10
    assert not fl.below_low
    assert not fl.below_high


def test_freelist_requires_free_blocks():
    env = Environment()
    b = CacheBlock(0, 4096)
    b.assign((1, 0))
    with pytest.raises(ValueError):
        FreeList(env, [b], low_blocks=1, high_blocks=2)


def test_freelist_acquire_release_cycle():
    env = Environment()
    fl = FreeList(env, _blocks(env, 3), low_blocks=1, high_blocks=2)
    got = []

    def proc(env):
        blk = yield from fl.acquire()
        got.append(blk)
        blk.assign((1, 0))
        blk.make_ready()
        blk.reset()
        fl.release(blk)

    env.process(proc(env))
    env.run()
    assert len(got) == 1
    assert len(fl) == 3


def test_freelist_release_nonfree_rejected():
    env = Environment()
    fl = FreeList(env, _blocks(env, 1), low_blocks=1, high_blocks=1)
    b = CacheBlock(9, 4096)
    b.assign((1, 0))
    with pytest.raises(ValueError):
        fl.release(b)


def test_freelist_acquire_blocks_when_dry():
    env = Environment()
    blocks = _blocks(env, 1)
    fl = FreeList(env, blocks, low_blocks=1, high_blocks=1)
    order = []

    def taker(env, tag):
        blk = yield from fl.acquire()
        order.append((tag, env.now))
        if tag == "first":
            yield env.timeout(5)
            blk.reset() if blk.state is not BlockState.FREE else None
            fl.release(blk)

    env.process(taker(env, "first"))
    env.process(taker(env, "second"))
    env.run()
    assert order[0] == ("first", 0.0)
    assert order[1] == ("second", 5.0)
    assert fl.allocation_waits == 1


def test_freelist_low_watermark_callback():
    env = Environment()
    fl = FreeList(env, _blocks(env, 4), low_blocks=3, high_blocks=4)
    pokes = []
    fl.on_low = lambda: pokes.append(env.now)

    def proc(env):
        yield from fl.acquire()  # count 3: not below low
        yield from fl.acquire()  # count 2: below low -> poke
        yield from fl.acquire()  # count 1: poke again

    env.process(proc(env))
    env.run()
    assert len(pokes) == 2


# -- DirtyList -----------------------------------------------------------


def _dirty_block(env, index):
    b = CacheBlock(index, 4096)
    b.assign((1, index))
    b.write(0, 10, None)
    return b


def test_dirtylist_requires_dirty():
    env = Environment()
    dl = DirtyList()
    with pytest.raises(ValueError):
        dl.add(CacheBlock(0, 4096))


def test_dirtylist_order_preserved():
    env = Environment()
    dl = DirtyList()
    blocks = [_dirty_block(env, i) for i in range(5)]
    for b in blocks:
        dl.add(b)
    assert dl.snapshot() == blocks
    # re-add keeps original position
    dl.add(blocks[0])
    assert dl.snapshot() == blocks


def test_dirtylist_discard_and_contains():
    env = Environment()
    dl = DirtyList()
    b = _dirty_block(env, 0)
    dl.add(b)
    assert b in dl and len(dl) == 1
    dl.discard(b)
    assert b not in dl and len(dl) == 0
    dl.discard(b)  # idempotent


def test_dirtylist_drain():
    env = Environment()
    dl = DirtyList()
    blocks = [_dirty_block(env, i) for i in range(3)]
    for b in blocks:
        dl.add(b)
    assert dl.drain() == blocks
    assert len(dl) == 0
