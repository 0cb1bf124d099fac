"""Unit tests for the free list (the dirty list is a dict of the
buffer manager: tests/test_cache_manager.py)."""

import pytest

from repro.cache.block import (
    BlockState,
    CacheBlock,
    assign_run,
    ready_run,
    unpin_run,
)
from repro.cache.freelist import FreeList
from repro.sim import Environment


def _blocks(env, n):
    return [CacheBlock(i, 4096) for i in range(n)]


def test_freelist_initial_count():
    env = Environment()
    fl = FreeList(env, _blocks(env, 10), low_blocks=2, high_blocks=5)
    assert len(fl) == 10
    assert not fl.below_low
    assert not fl.below_high


def test_freelist_requires_free_blocks():
    env = Environment()
    b = CacheBlock(0, 4096)
    assign_run((b,), ((1, 0),))
    with pytest.raises(ValueError):
        FreeList(env, [b], low_blocks=1, high_blocks=2)


def test_freelist_acquire_release_cycle():
    env = Environment()
    fl = FreeList(env, _blocks(env, 3), low_blocks=1, high_blocks=2)
    got = []

    def proc(env):
        blk = yield from fl.acquire()
        got.append(blk)
        assign_run((blk,), ((1, 0),))
        ready_run((blk,))
        fl.release_run((blk,))

    env.process(proc(env))
    env.run()
    assert len(got) == 1
    assert len(fl) == 3


def test_freelist_release_resets_but_refuses_a_pinned_block():
    """Returning a frame resets it, so a keyed block is a valid input;
    one still pinned by a copy in progress is not."""
    env = Environment()
    fl = FreeList(env, _blocks(env, 1), low_blocks=1, high_blocks=1)
    b = CacheBlock(9, 4096)
    assign_run((b,), ((1, 0),))
    b.pins += 1
    with pytest.raises(RuntimeError, match="pinned"):
        fl.release_run((b,))
    assert len(fl) == 1
    unpin_run((b,))
    fl.release_run((b,))
    assert b.state is BlockState.FREE and b.key is None
    assert len(fl) == 2


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
            fl.release_run((blk,))

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

