"""Unit tests for CacheBlock state transitions."""

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


def _block(index=0, size=4096):
    return CacheBlock(index, size)


def test_new_block_is_free():
    b = _block()
    assert b.state is BlockState.FREE
    assert b.key is None
    assert b.data is None
    assert not b.is_evictable


def test_assign_makes_pending():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    assert b.state is BlockState.PENDING
    assert b.key == (1, 0)
    # Nobody waits yet, so no event exists; the first waiter makes it.
    assert b.ready_event is None
    ev = b.ready(env)
    assert b.ready_event is ev and b.ready(env) is ev
    assert not ev.triggered
    assert b.refbit
    assert not b.is_evictable  # pending blocks cannot be evicted


def test_assign_nonfree_raises():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    with pytest.raises(RuntimeError):
        assign_run((b,), ((1, 1),))


def test_write_dirties():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    b.write(0, 100, b"x" * 100)
    assert b.state is BlockState.DIRTY
    assert b.dirty.covers(0, 100)
    assert b.valid.covers(0, 100)
    assert b.read_slice(0, 100) == b"x" * 100
    assert b.dirty_epoch == 1


def test_write_to_free_raises():
    b = _block()
    with pytest.raises(RuntimeError):
        b.write(0, 10, None)


def test_write_sizeless_mode():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    b.write(0, 4096, None)
    assert b.state is BlockState.DIRTY
    assert b.data is None
    assert b.read_slice(0, 10) is None


def test_bounds_checking():
    env = Environment()
    b = _block(size=4096)
    assign_run((b,), ((1, 0),))
    with pytest.raises(ValueError):
        b.write(0, 4097, None)
    with pytest.raises(ValueError):
        b.merge_fetch(-1, 10, None)
    with pytest.raises(ValueError):
        b.read_slice(100, 50)


def test_merge_fetch_respects_dirty_bytes():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    b.write(100, 200, b"D" * 100)  # dirty bytes 100..200
    b.merge_fetch(0, 4096, b"F" * 4096)
    assert b.read_slice(0, 100) == b"F" * 100
    assert b.read_slice(100, 200) == b"D" * 100  # dirty preserved
    assert b.read_slice(200, 300) == b"F" * 100
    assert b.valid.covers(0, 4096)


def test_make_ready_fires_event_and_becomes_clean():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    ev = b.ready(env)
    b.merge_fetch(0, 4096, None)
    ready_run((b,))
    assert b.state is BlockState.CLEAN
    assert b.ready_event is None
    assert ev.triggered and ev.value is b


def test_make_ready_without_waiters_schedules_nothing():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    ready_run((b,))
    assert b.state is BlockState.CLEAN
    assert b.ready_event is None
    assert env.peek() == float("inf")


def test_make_ready_stays_dirty_if_written_while_pending():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    b.write(0, 10, None)
    b.merge_fetch(0, 4096, None)
    ready_run((b,))
    assert b.state is BlockState.DIRTY


def test_mark_clean_epoch_guard():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    ready_run((b,))
    b.write(0, 10, None)
    epoch = b.dirty_epoch
    b.write(10, 20, None)  # raced write bumps epoch
    assert b.mark_clean(epoch) is False
    assert b.state is BlockState.DIRTY
    assert b.mark_clean(b.dirty_epoch) is True
    assert b.state is BlockState.CLEAN
    assert b.dirty.is_empty()


def test_mark_clean_on_clean_is_false():
    b = _block()
    assert b.mark_clean(0) is False


def _reset(env, block):
    """Any state -> FREE: returning a frame to the pool resets it."""
    FreeList(env, [], low_blocks=0, high_blocks=0).release_run((block,))


def test_reset_clears_everything():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    b.write(0, 10, b"z" * 10)
    ready_run((b,))
    _reset(env, b)
    assert b.state is BlockState.FREE
    assert b.key is None
    assert b.data is None
    assert b.valid.is_empty() and b.dirty.is_empty()
    assert not b.doomed


def test_reset_pending_fails_waiters():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    ev = b.ready(env)
    _reset(env, b)
    assert ev.triggered and not ev.ok


def test_reset_pinned_raises():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    b.pins += 1
    with pytest.raises(RuntimeError):
        _reset(env, b)


def test_pin_unpin():
    env = Environment()
    b = _block()
    assign_run((b,), ((1, 0),))
    ready_run((b,))
    assert b.is_evictable
    b.pins += 1
    b.pins += 1
    assert not b.is_evictable
    unpin_run((b,))
    assert not b.is_evictable
    unpin_run((b,))
    assert b.is_evictable
    with pytest.raises(RuntimeError):
        unpin_run((b,))


def test_repr_mentions_state():
    b = _block(index=7)
    assert "#7" in repr(b)
    assert "free" in repr(b)
