"""Model-based random-operation test of the BufferManager.

Hypothesis drives random sequences of allocate / write / flush-clean /
evict / invalidate against a small manager; after every step the
global invariants that the rest of the system relies on are checked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import BlockState, ready_run
from repro.cache.manager import BufferManager
from repro.cluster.config import CacheConfig
from repro.metrics import Metrics
from repro.sim import Environment

N_BLOCKS = 6
KEYS = [(1, i) for i in range(4)] + [(2, i) for i in range(4)]

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ["allocate", "write", "make_ready", "clean", "evict",
             "invalidate", "lookup"]
        ),
        st.integers(0, len(KEYS) - 1),
    ),
    max_size=60,
)


def _check_invariants(m: BufferManager) -> None:
    # Frame conservation: every frame is free, resident or doomed (an
    # invalidated in-flight fill, freed when it lands); allocation
    # waiters may make the freelist counter negative, but this
    # single-process driver never leaves waiters behind.
    doomed = [b for b in m.blocks if b.doomed]
    assert m.n_free + m.n_resident + len(doomed) == N_BLOCKS
    resident = list(m.table.values())
    # no table block is FREE; keys unique
    keys = [b.key for b in resident]
    assert len(set(keys)) == len(keys)
    for block in resident:
        assert block.state is not BlockState.FREE
        assert block.key is not None
    # the dirty list only holds DIRTY resident blocks
    for block in list(m.dirtylist):
        assert block.state is BlockState.DIRTY
        assert block in resident
    # every DIRTY resident block that was noted is tracked; and no
    # CLEAN/PENDING block lingers on the dirty list (checked above)
    # free frames really are FREE
    free_states = [
        b.state for b in m.blocks if b not in resident and not b.doomed
    ]
    assert all(s is BlockState.FREE for s in free_states)
    # a doomed frame is an in-flight fill nobody can find
    for block in doomed:
        assert block.state is BlockState.PENDING
        assert block not in resident


def _land_doomed(m: BufferManager, key=None) -> None:
    """The fetches of doomed blocks (of ``key``, or all) land: each
    frame is freed, as the fetch path's ``release_if_unheld`` does."""
    for block in m.blocks:
        if block.doomed and key in (None, block.key):
            ready_run((block,))
            m.release_doomed(block)


@settings(max_examples=120, deadline=None)
@given(ops=op_strategy)
def test_manager_invariants_under_random_ops(ops):
    env = Environment()
    config = CacheConfig(
        size_bytes=N_BLOCKS * 4096,
        block_size=4096,
        low_watermark=0.2,
        high_watermark=0.5,
    )
    m = BufferManager(env, config, Metrics())

    def driver(env):
        for op, key_idx in ops:
            key = KEYS[key_idx]
            block = m.table.get(key)
            if op == "allocate":
                if m.n_free > 0 or block is not None:
                    block, _resident = yield from m.get_or_allocate(key)
            elif op == "write" and block is not None:
                block.write(0, 100, None)
                m.note_write(block)
            elif op == "make_ready":
                if block is not None and block.state is BlockState.PENDING:
                    ready_run((block,))
                _land_doomed(m, key)
            elif op == "clean" and block is not None:
                if block.state is BlockState.DIRTY:
                    m.note_cleaned(block, block.dirty_epoch)
            elif op == "evict" and block is not None:
                if block.state is BlockState.CLEAN and block.pins == 0:
                    m.evict([block])
            elif op == "invalidate":
                m.invalidate(key)
            elif op == "lookup":
                found = m.lookup(key)
                assert (found is not None) == (key in m.table)
            _check_invariants(m)
        # Drain: make everything evictable and evict it.
        _land_doomed(m)
        for block in list(m.table.values()):
            if block.state is BlockState.PENDING:
                ready_run((block,))
            if block.state is BlockState.DIRTY:
                m.note_cleaned(block, block.dirty_epoch)
            if block.state is BlockState.CLEAN:
                m.evict([block])
            _check_invariants(m)

    proc = env.process(driver(env))
    env.run(until=proc)
    assert m.n_free == N_BLOCKS
    assert m.n_resident == 0
    assert m.n_dirty == 0
