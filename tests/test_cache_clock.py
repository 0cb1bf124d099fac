"""Unit tests for the clock (approximate LRU) and exact-LRU policies."""

import pytest

from repro.cache.block import BlockState, CacheBlock
from repro.cache.clock import ClockPolicy, ExactLRUPolicy
from repro.sim import Environment


def _clean_block(env, index):
    b = CacheBlock(index, 4096)
    b.assign((1, index))
    b.make_ready()
    b.refbit = False
    return b


def _dirty_block(env, index):
    b = CacheBlock(index, 4096)
    b.assign((1, index))
    b.write(0, 10, None)
    b.refbit = False
    return b


@pytest.fixture(params=[ClockPolicy, ExactLRUPolicy])
def policy_cls(request):
    return request.param


def test_empty_policy_returns_nothing(policy_cls):
    p = policy_cls()
    assert p.select_victims(5) == []
    assert len(p) == 0


def test_select_nonpositive(policy_cls):
    env = Environment()
    p = policy_cls()
    p.admit(_clean_block(env, 0))
    assert p.select_victims(0) == []


def test_admit_and_select(policy_cls):
    env = Environment()
    p = policy_cls()
    blocks = [_clean_block(env, i) for i in range(5)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
    victims = p.select_victims(3)
    assert len(victims) == 3
    assert all(v in blocks for v in victims)


def test_forget_removes(policy_cls):
    env = Environment()
    p = policy_cls()
    b = _clean_block(env, 0)
    p.admit(b)
    p.forget(b)
    assert p.select_victims(1) == []
    p.forget(b)  # idempotent


def test_pinned_and_pending_never_selected(policy_cls):
    env = Environment()
    p = policy_cls()
    pinned = _clean_block(env, 0)
    pinned.pin()
    pending = CacheBlock(1, 4096)
    pending.assign((1, 1))
    pending.refbit = False
    for b in (pinned, pending):
        p.admit(b)
        b.refbit = False
    assert p.select_victims(2) == []


def test_clean_preferred_over_dirty(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    clean = _clean_block(env, 1)
    for b in (dirty, clean):
        p.admit(b)
        b.refbit = False
    victims = p.select_victims(1, prefer_clean=True)
    assert victims == [clean]


def test_dirty_fallback_when_no_clean(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    p.admit(dirty)
    dirty.refbit = False
    assert p.select_victims(1, prefer_clean=True) == [dirty]


def test_prefer_clean_false_takes_any(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    p.admit(dirty)
    dirty.refbit = False
    assert p.select_victims(1, prefer_clean=False) == [dirty]


# -- clock specifics ------------------------------------------------------


def test_clock_second_chance():
    env = Environment()
    p = ClockPolicy()
    a = _clean_block(env, 0)
    b = _clean_block(env, 1)
    p.admit(a)  # admit sets refbit
    p.admit(b)
    b.refbit = False  # a referenced, b not
    victims = p.select_victims(1)
    assert victims == [b]  # a got its second chance
    assert a.refbit is False  # ...but lost its reference bit


def test_clock_touch_sets_refbit_only():
    env = Environment()
    p = ClockPolicy()
    a = _clean_block(env, 0)
    p.admit(a)
    a.refbit = False
    p.touch(a)
    assert a.refbit
    assert len(p) == 1  # no duplicate ring entries


def test_clock_forget_adjusts_hand():
    env = Environment()
    p = ClockPolicy()
    blocks = [_clean_block(env, i) for i in range(4)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
    p.select_victims(1)  # advances hand
    p.forget(blocks[0])
    # remaining selections still work without index errors
    victims = p.select_victims(3)
    assert len(victims) == 3 - 1 + 1  # 3 remaining blocks


def test_clock_early_exit_when_nothing_evictable():
    env = Environment()
    p = ClockPolicy()
    blocks = [_clean_block(env, i) for i in range(10)]
    for b in blocks:
        p.admit(b)
        b.refbit = False
        b.pin()
    assert p.select_victims(5) == []


# -- exact LRU specifics ----------------------------------------------------


def test_exact_lru_order():
    env = Environment()
    p = ExactLRUPolicy()
    a, b, c = (_clean_block(env, i) for i in range(3))
    for blk in (a, b, c):
        p.admit(blk)
    p.touch(a)  # order now: b, c, a
    assert p.select_victims(2) == [b, c]


def test_exact_lru_victims_in_lru_order():
    env = Environment()
    p = ExactLRUPolicy()
    blocks = [_clean_block(env, i) for i in range(5)]
    for b in blocks:
        p.admit(b)
    assert p.select_victims(5) == blocks
