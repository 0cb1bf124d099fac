"""Unit tests for the clock (approximate LRU) and exact-LRU policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.block import BlockState, CacheBlock, assign_run, ready_run
from repro.cache.clock import ClockPolicy, ExactLRUPolicy
from repro.sim import Environment


def _clean_block(env, index):
    b = CacheBlock(index, 4096)
    assign_run((b,), ((1, index),))
    ready_run((b,))
    b.refbit = False
    return b


def _dirty_block(env, index):
    b = CacheBlock(index, 4096)
    assign_run((b,), ((1, index),))
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
    p.admit_run((_clean_block(env, 0),))
    assert p.select_victims(0) == []


def test_admit_and_select(policy_cls):
    env = Environment()
    p = policy_cls()
    blocks = [_clean_block(env, i) for i in range(5)]
    for b in blocks:
        p.admit_run((b,))
        b.refbit = False
    victims = p.select_victims(3)
    assert len(victims) == 3
    assert all(v in blocks for v in victims)


def test_forget_removes(policy_cls):
    env = Environment()
    p = policy_cls()
    b = _clean_block(env, 0)
    p.admit_run((b,))
    p.forget_run([b])
    assert p.select_victims(1) == []
    p.forget_run([b])  # idempotent


def test_pinned_and_pending_never_selected(policy_cls):
    env = Environment()
    p = policy_cls()
    pinned = _clean_block(env, 0)
    pinned.pins += 1
    pending = CacheBlock(1, 4096)
    assign_run((pending,), ((1, 1),))
    pending.refbit = False
    for b in (pinned, pending):
        p.admit_run((b,))
        b.refbit = False
    assert p.select_victims(2) == []


def test_clean_preferred_over_dirty(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    clean = _clean_block(env, 1)
    for b in (dirty, clean):
        p.admit_run((b,))
        b.refbit = False
    victims = p.select_victims(1)
    assert victims == [clean]


def test_dirty_fallback_when_no_clean(policy_cls):
    env = Environment()
    p = policy_cls()
    dirty = _dirty_block(env, 0)
    p.admit_run((dirty,))
    dirty.refbit = False
    assert p.select_victims(1) == [dirty]


# -- clock specifics ------------------------------------------------------


def test_clock_second_chance():
    env = Environment()
    p = ClockPolicy()
    a = _clean_block(env, 0)
    b = _clean_block(env, 1)
    p.admit_run((a,))  # admit sets refbit
    p.admit_run((b,))
    b.refbit = False  # a referenced, b not
    victims = p.select_victims(1)
    assert victims == [b]  # a got its second chance
    assert a.refbit is False  # ...but lost its reference bit


def test_clock_touch_sets_refbit_only():
    env = Environment()
    p = ClockPolicy()
    a = _clean_block(env, 0)
    p.admit_run((a,))
    a.refbit = False
    p.touch(a)
    assert a.refbit
    assert len(p) == 1  # no duplicate ring entries


def test_clock_forget_adjusts_hand():
    env = Environment()
    p = ClockPolicy()
    blocks = [_clean_block(env, i) for i in range(4)]
    for b in blocks:
        p.admit_run((b,))
        b.refbit = False
    p.select_victims(1)  # advances hand
    p.forget_run([blocks[0]])
    # remaining selections still work without index errors
    victims = p.select_victims(3)
    assert len(victims) == 3 - 1 + 1  # 3 remaining blocks


def test_clock_early_exit_when_nothing_evictable():
    env = Environment()
    p = ClockPolicy()
    blocks = [_clean_block(env, i) for i in range(10)]
    for b in blocks:
        p.admit_run((b,))
        b.refbit = False
        b.pins += 1
    assert p.select_victims(5) == []


# -- exact LRU specifics ----------------------------------------------------


def test_exact_lru_order():
    env = Environment()
    p = ExactLRUPolicy()
    a, b, c = (_clean_block(env, i) for i in range(3))
    for blk in (a, b, c):
        p.admit_run((blk,))
    p.touch(a)  # order now: b, c, a
    assert p.select_victims(2) == [b, c]


def test_exact_lru_victims_in_lru_order():
    env = Environment()
    p = ExactLRUPolicy()
    blocks = [_clean_block(env, i) for i in range(5)]
    for b in blocks:
        p.admit_run((b,))
    assert p.select_victims(5) == blocks


# -- the run-forget against one-at-a-time forgets ----------------------------


def _forget_one(ring, hand, block):
    """ClockPolicy's one-block forget as it was before batch eviction:
    the oracle the run-forget must match."""
    try:
        idx = ring.index(block)
    except ValueError:
        return hand
    ring.pop(idx)
    if idx < hand:
        hand -= 1
    return hand % len(ring) if ring else 0


@given(data=st.data(), n=st.integers(0, 12))
def test_clock_forget_run_matches_sequential_forgets(data, n):
    blocks = [CacheBlock(i, 4096) for i in range(n + 3)]  # 3 never admitted
    ring = data.draw(st.permutations(blocks[:n]))
    hand = data.draw(st.integers(0, max(0, n - 1)))
    gone = data.draw(st.lists(st.sampled_from(blocks), max_size=n + 3))
    p = ClockPolicy()
    p._ring, p._hand = list(ring), hand
    p.forget_run(gone)
    want_ring, want_hand = list(ring), hand
    for block in gone:
        want_hand = _forget_one(want_ring, want_hand, block)
    assert p._ring == want_ring
    assert p._hand == want_hand


@given(data=st.data(), n=st.integers(0, 12))
def test_exact_lru_forget_run_matches_sequential_forgets(data, n):
    blocks = [CacheBlock(i, 4096) for i in range(n + 3)]  # 3 never admitted
    order = data.draw(st.permutations(blocks[:n]))
    gone = data.draw(st.lists(st.sampled_from(blocks), max_size=n + 3))
    p = ExactLRUPolicy()
    for block in order:
        p.admit_run((block,))
    p.forget_run(gone)
    want = dict.fromkeys(order)
    for block in gone:
        want.pop(block, None)
    assert list(p._order) == list(want)
