"""Unit + property tests for the open-hashing block table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import CacheBlock
from repro.cache.hashtable import BlockHashTable, _next_prime
from repro.sim import Environment


def _resident_block(index, key):
    env = Environment()
    b = CacheBlock(index, 4096)
    b.assign(key)
    return b


def test_next_prime():
    assert _next_prime(2) == 2
    assert _next_prime(4) == 5
    assert _next_prime(90) == 97
    assert _next_prime(600) == 601


def test_bucket_hint_validation():
    with pytest.raises(ValueError):
        BlockHashTable(n_buckets_hint=0)


def test_insert_get_remove():
    t = BlockHashTable(n_buckets_hint=7)
    b = _resident_block(0, (1, 5))
    t.insert(b)
    assert len(t) == 1
    assert (1, 5) in t
    assert t.get((1, 5)) is b
    assert t.get((1, 6)) is None
    t.remove(b)
    assert len(t) == 0
    assert t.get((1, 5)) is None


def test_duplicate_insert_rejected():
    t = BlockHashTable()
    t.insert(_resident_block(0, (1, 5)))
    with pytest.raises(KeyError):
        t.insert(_resident_block(1, (1, 5)))


def test_insert_keyless_rejected():
    t = BlockHashTable()
    with pytest.raises(ValueError):
        t.insert(CacheBlock(0, 4096))


def test_remove_absent_raises():
    t = BlockHashTable()
    b = _resident_block(0, (1, 5))
    with pytest.raises(KeyError):
        t.remove(b)
    with pytest.raises(ValueError):
        t.remove(CacheBlock(1, 4096))


def test_chaining_many_keys_one_bucket():
    t = BlockHashTable(n_buckets_hint=2)  # tiny: forces chains
    blocks = [_resident_block(i, (1, i)) for i in range(20)]
    for b in blocks:
        t.insert(b)
    assert len(t) == 20
    for b in blocks:
        assert t.get(b.key) is b
    assert sum(t.chain_lengths()) == 20


def test_blocks_iterates_all():
    t = BlockHashTable()
    keys = {(1, i) for i in range(10)}
    for i, k in enumerate(keys):
        t.insert(_resident_block(i, k))
    assert {b.key for b in t.blocks()} == keys


keys_strategy = st.lists(
    st.tuples(st.integers(1, 5), st.integers(0, 50)), max_size=30
)


@settings(max_examples=150)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]),
              st.tuples(st.integers(1, 3), st.integers(0, 10))),
    max_size=40,
))
def test_property_matches_dict_model(ops):
    """The chained table behaves exactly like a dict."""
    t = BlockHashTable(n_buckets_hint=3)  # force heavy chaining
    model: dict = {}
    counter = 0
    for op, key in ops:
        if op == "insert":
            if key in model:
                with pytest.raises(KeyError):
                    t.insert(_resident_block(counter, key))
            else:
                b = _resident_block(counter, key)
                t.insert(b)
                model[key] = b
            counter += 1
        else:
            if key in model:
                t.remove(model.pop(key))
            # removing absent key needs a block handle; skip
    assert len(t) == len(model)
    for key, block in model.items():
        assert t.get(key) is block
    assert {b.key for b in t.blocks()} == set(model)
