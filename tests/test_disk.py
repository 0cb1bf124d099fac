"""Unit tests for the disk substrate."""

import pytest

from repro.disk import DiskModel, LocalFileStore, PageCache
from repro.disk.filesystem import blocks_spanned, slice_for_block
from repro.sim import Environment


# -- DiskModel ------------------------------------------------------------


def test_disk_validation():
    env = Environment()
    with pytest.raises(ValueError):
        DiskModel(env, transfer_bytes_per_s=0)


def test_disk_first_access_seeks():
    env = Environment()
    disk = DiskModel(env, avg_seek_s=0.008, half_rotation_s=0.005,
                     transfer_bytes_per_s=20e6)
    done = []

    def proc(env):
        yield env.process(disk.io(1, 0, 4096, write=False))
        done.append(env.now)

    env.process(proc(env))
    env.run()
    expected = 0.008 + 0.005 + 4096 / 20e6
    assert done[0] == pytest.approx(expected)
    assert disk.seeks == 1


def test_disk_sequential_access_skips_seek():
    env = Environment()
    disk = DiskModel(env, avg_seek_s=0.008, half_rotation_s=0.005,
                     transfer_bytes_per_s=20e6)
    times = []

    def proc(env):
        yield env.process(disk.io(1, 0, 4096, write=False))
        t0 = env.now
        yield env.process(disk.io(1, 4096, 4096, write=False))
        times.append(env.now - t0)

    env.process(proc(env))
    env.run()
    assert times[0] == pytest.approx(4096 / 20e6)
    assert disk.seeks == 1


def test_disk_file_switch_forces_seek():
    env = Environment()
    disk = DiskModel(env)

    def proc(env):
        yield env.process(disk.io(1, 0, 4096, write=False))
        yield env.process(disk.io(2, 0, 4096, write=False))
        yield env.process(disk.io(1, 4096, 4096, write=False))

    env.process(proc(env))
    env.run()
    # all three seek: new file, other file, then back (head moved away)
    assert disk.seeks == 3


def test_disk_fifo_queueing():
    """Two concurrent requests serialise on the spindle."""
    env = Environment()
    disk = DiskModel(env, avg_seek_s=0.01, half_rotation_s=0,
                     transfer_bytes_per_s=1e9)
    finish = {}

    def proc(env, tag, file_id):
        yield env.process(disk.io(file_id, 0, 4096, write=False))
        finish[tag] = env.now

    env.process(proc(env, "a", 1))
    env.process(proc(env, "b", 2))
    env.run()
    assert finish["b"] > finish["a"]
    assert finish["b"] == pytest.approx(2 * finish["a"], rel=0.01)


def test_disk_counters():
    env = Environment()
    disk = DiskModel(env)

    def proc(env):
        yield env.process(disk.io(1, 0, 4096, write=False))
        yield env.process(disk.io(1, 4096, 8192, write=True))

    env.process(proc(env))
    env.run()
    assert disk.reads == 1 and disk.bytes_read == 4096
    assert disk.writes == 1 and disk.bytes_written == 8192


def test_disk_negative_size_rejected():
    env = Environment()
    disk = DiskModel(env)

    def proc(env):
        yield env.process(disk.io(1, 0, -1, write=False))

    p = env.process(proc(env))
    env.run()
    assert not p.ok


def test_disk_head_state_stays_bounded():
    """Regression: head state must not grow with the number of files.

    The model once kept a per-file head-position dict that was never
    pruned (only the latest entry was ever consulted), leaking an
    entry per file on long multi-file sweeps.  The state is now two
    scalars.
    """
    env = Environment()
    disk = DiskModel(env)

    def proc(env):
        for file_id in range(500):
            yield env.process(disk.io(file_id, 0, 4096, write=False))

    env.process(proc(env))
    env.run()
    assert not hasattr(disk, "_head_pos")
    assert disk._last_file == 499
    assert disk._last_end == 4096
    # Folding kept the semantics: only a continuation of the *last*
    # access is sequential.
    assert disk.is_sequential(499, 4096)
    assert not disk.is_sequential(0, 4096)


def test_disk_io_batch_times_like_per_run_ios():
    """The mechanical io_batch replays the per-request schedule."""

    runs = [(0, 4096), (16384, 8192), (24576, 4096)]  # run 3 continues run 2

    def one_env(use_batch):
        env = Environment()
        disk = DiskModel(env)

        def proc(env):
            if use_batch:
                yield from disk.io_batch(1, runs)
            else:
                for off, n in runs:
                    yield env.process(disk.io(1, off, n, write=False))

        env.process(proc(env))
        env.run()
        return env.now, disk.seeks, disk.reads, disk.bytes_read

    assert one_env(True) == one_env(False)


def test_disk_io_batch_on_run_complete_interleaves():
    """Mechanical batches report each run as it lands, not at the end."""
    env = Environment()
    disk = DiskModel(env)
    landings = []

    def proc(env):
        yield from disk.io_batch(
            1,
            [(0, 4096), (16384, 4096)],
            on_run_complete=lambda i: landings.append((i, env.now)),
        )

    env.process(proc(env))
    env.run()
    assert [i for i, _ in landings] == [0, 1]
    assert landings[0][1] < landings[1][1]


def test_disk_io_batch_write_counters():
    env = Environment()
    disk = DiskModel(env)

    def proc(env):
        yield from disk.io_batch(1, [(0, 4096), (16384, 8192)], write=True)

    env.process(proc(env))
    env.run()
    assert disk.writes == 2 and disk.bytes_written == 12288
    assert disk.reads == 0


# -- LocalFileStore ----------------------------------------------------------


def test_store_roundtrip():
    store = LocalFileStore()
    store.write_block(1, 0, b"hello")
    data = store.read_block(1, 0)
    assert data.startswith(b"hello")
    assert len(data) == store.block_size


def test_store_unwritten_reads_zeros():
    store = LocalFileStore()
    assert store.read_block(9, 5) == b"\x00" * store.block_size
    assert not store.has_block(9, 5)


def test_store_sizeless_write_allocates():
    store = LocalFileStore()
    store.write_block(1, 3, None)
    assert store.has_block(1, 3)
    assert store.read_block(1, 3) == b"\x00" * store.block_size


def test_store_oversized_block_rejected():
    store = LocalFileStore(block_size=16)
    with pytest.raises(ValueError):
        store.write_block(1, 0, b"x" * 17)


def test_store_invalid_block_size():
    with pytest.raises(ValueError):
        LocalFileStore(block_size=0)


def test_store_blocks_of_and_delete():
    store = LocalFileStore()
    for b in (3, 1, 2):
        store.write_block(7, b, b"x")
    store.write_block(8, 0, b"y")
    assert store.blocks_of(7) == [1, 2, 3]
    assert store.delete_file(7) == 3
    assert store.blocks_of(7) == []
    assert store.has_block(8, 0)


def test_store_overwrite_replaces():
    store = LocalFileStore()
    store.write_block(1, 0, b"old")
    store.write_block(1, 0, b"new")
    assert store.read_block(1, 0).startswith(b"new")
    assert len(store) == 1


# -- LocalFileStore range APIs (the zero-copy data path) --------------------


def test_store_range_roundtrip_unaligned():
    store = LocalFileStore(block_size=16)
    payload = bytes(range(100, 140))  # 40 bytes: straddles 4 blocks
    store.write_range(1, 7, 40, payload)
    assert store.read_range(1, 7, 40) == payload
    # Bytes around the written window read as zeros.
    assert store.read_range(1, 0, 7) == b"\x00" * 7
    assert store.read_range(1, 47, 10) == b"\x00" * 10


def test_store_read_range_matches_block_assembly():
    store = LocalFileStore(block_size=16)
    for block in (0, 1, 3):  # leave a hole at block 2
        store.write_block(5, block, bytes([block + 1] * 16))
    offset, nbytes = 5, 55
    expected = b"".join(
        store.read_block(5, b)[s : s + ln]
        for b in blocks_spanned(offset, nbytes, 16)
        for s, ln in [slice_for_block(offset, nbytes, b, 16)]
    )
    assert store.read_range(5, offset, nbytes) == expected


def test_store_write_range_partial_patch_preserves_rest():
    store = LocalFileStore(block_size=16)
    store.write_range(1, 0, 32, b"A" * 32)
    store.write_range(1, 10, 12, b"B" * 12)  # patch across the boundary
    data = store.read_range(1, 0, 32)
    assert data == b"A" * 10 + b"B" * 12 + b"A" * 10


def test_store_write_range_none_allocates_without_clobber():
    store = LocalFileStore(block_size=16)
    store.write_range(1, 0, 16, b"C" * 16)
    store.write_range(1, 0, 48, None)  # size-only write over it
    assert store.has_block(1, 0) and store.has_block(1, 2)
    assert store.read_range(1, 0, 16) == b"C" * 16  # payload kept
    assert store.read_range(1, 16, 32) == b"\x00" * 32


def test_store_range_zero_bytes_is_noop():
    store = LocalFileStore()
    assert store.read_range(1, 100, 0) == b""
    store.write_range(1, 100, 0, b"")
    assert len(store) == 0


def test_store_read_block_copies_mutable_blocks():
    """A partially patched block must not leak the internal buffer."""
    store = LocalFileStore(block_size=16)
    store.write_range(1, 4, 4, b"XXXX")  # partial -> bytearray inside
    snapshot = store.read_block(1, 0)
    assert isinstance(snapshot, bytes)
    store.write_range(1, 4, 4, b"YYYY")
    assert snapshot[4:8] == b"XXXX"  # earlier read unaffected
    assert store.read_block(1, 0)[4:8] == b"YYYY"


def test_store_write_range_full_block_replaces_patched():
    store = LocalFileStore(block_size=16)
    store.write_range(1, 4, 4, b"XXXX")  # promoted to bytearray
    store.write_range(1, 0, 16, b"Z" * 16)  # full overwrite
    assert store.read_block(1, 0) == b"Z" * 16


# -- block geometry helpers -----------------------------------------------


def test_blocks_spanned_basic():
    assert list(blocks_spanned(0, 4096, 4096)) == [0]
    assert list(blocks_spanned(0, 4097, 4096)) == [0, 1]
    assert list(blocks_spanned(4095, 2, 4096)) == [0, 1]
    assert list(blocks_spanned(8192, 4096, 4096)) == [2]


def test_blocks_spanned_empty_and_invalid():
    assert list(blocks_spanned(100, 0)) == []
    with pytest.raises(ValueError):
        blocks_spanned(-1, 10)
    with pytest.raises(ValueError):
        blocks_spanned(0, -10)


def test_slice_for_block():
    # request [1000, 9000) with 4 KB blocks
    assert slice_for_block(1000, 8000, 0, 4096) == (1000, 3096)
    assert slice_for_block(1000, 8000, 1, 4096) == (0, 4096)
    assert slice_for_block(1000, 8000, 2, 4096) == (0, 808)
    assert slice_for_block(1000, 8000, 3, 4096) == (0, 0)


# -- PageCache --------------------------------------------------------------


def test_pagecache_miss_then_hit():
    pc = PageCache(capacity_blocks=4)
    assert pc.lookup(1, 0) is False
    pc.insert(1, 0)
    assert pc.lookup(1, 0) is True
    assert pc.hits == 1 and pc.misses == 1
    assert pc.hit_ratio == 0.5


def test_pagecache_lru_eviction():
    pc = PageCache(capacity_blocks=2)
    pc.insert(1, 0)
    pc.insert(1, 1)
    pc.lookup(1, 0)  # 0 becomes MRU
    pc.insert(1, 2)  # evicts 1
    assert pc.contains(1, 0)
    assert not pc.contains(1, 1)
    assert pc.contains(1, 2)


def test_pagecache_zero_capacity_never_stores():
    pc = PageCache(capacity_blocks=0)
    pc.insert(1, 0)
    assert not pc.contains(1, 0)
    assert len(pc) == 0


def test_pagecache_negative_capacity_rejected():
    with pytest.raises(ValueError):
        PageCache(capacity_blocks=-1)


def test_pagecache_invalidate():
    pc = PageCache(capacity_blocks=4)
    pc.insert(1, 0)
    assert pc.invalidate(1, 0) is True
    assert pc.invalidate(1, 0) is False
    assert not pc.contains(1, 0)


def test_pagecache_reinsert_updates_recency():
    pc = PageCache(capacity_blocks=2)
    pc.insert(1, 0)
    pc.insert(1, 1)
    pc.insert(1, 0)  # refresh, no growth
    pc.insert(1, 2)  # evicts 1 (LRU), not 0
    assert pc.contains(1, 0) and pc.contains(1, 2)
    assert not pc.contains(1, 1)


def test_pagecache_hit_ratio_empty():
    pc = PageCache()
    assert pc.hit_ratio == 0.0


def test_pagecache_packed_keys_keep_files_apart_and_reject_overflow():
    """Keys are ``file_id << 40 | block``: the top block of one file is
    not block 0 of the next, and a block number that would alias
    another file is an error on every entry point."""
    top = (1 << 40) - 1
    pc = PageCache(capacity_blocks=8)
    pc.insert(1, top)
    pc.insert_many(2, top - 1, 2)
    assert pc.contains(1, top) and not pc.contains(2, 0)
    assert pc.lookup_many(2, [top - 1, top]) == (2, [])
    assert pc.invalidate(1, top) and not pc.invalidate(1, top)
    for bad in (top + 1, -1):
        for call in (
            lambda: pc.lookup(1, bad),
            lambda: pc.lookup_many(1, [0, bad]),
            lambda: pc.insert(1, bad),
            lambda: pc.insert_many(1, bad, 1),
            lambda: pc.insert_many(1, top, 2) if bad > 0 else pc.insert(1, bad),
            lambda: pc.contains(1, bad),
            lambda: pc.invalidate(1, bad),
        ):
            with pytest.raises(ValueError, match="block number"):
                call()
    assert len(pc) == 2


# -- PageCache bulk APIs (the batched miss path) ----------------------------


def test_pagecache_lookup_many_coalesces_missing_runs():
    pc = PageCache(capacity_blocks=8)
    pc.insert(1, 2)
    hits, runs = pc.lookup_many(1, [0, 1, 2, 3, 5, 6])
    assert hits == 1
    assert runs == [(0, 2), (3, 1), (5, 2)]
    assert pc.hits == 1 and pc.misses == 5


def test_pagecache_lookup_many_matches_per_block_lookups():
    blocks = [0, 1, 4, 5, 6, 9]
    resident = [1, 5]
    bulk = PageCache(capacity_blocks=8)
    loop = PageCache(capacity_blocks=8)
    for cache in (bulk, loop):
        for b in resident:
            cache.insert(1, b)
    hits, runs = bulk.lookup_many(1, blocks)
    # Reference: the old per-block loop with caller-side coalescing.
    missing = [b for b in blocks if not loop.lookup(1, b)]
    ref_runs, start, prev = [], None, None
    for b in missing:
        if start is None:
            start = prev = b
        elif b == prev + 1:
            prev = b
        else:
            ref_runs.append((start, prev - start + 1))
            start = prev = b
    if start is not None:
        ref_runs.append((start, prev - start + 1))
    assert runs == ref_runs
    assert hits == loop.hits
    assert (bulk.hits, bulk.misses) == (loop.hits, loop.misses)
    assert list(bulk._lru) == list(loop._lru)  # identical recency order


def test_pagecache_lookup_many_repeated_block_closes_run():
    """A duplicate missing block starts a new run (not a longer one),
    matching the old coalescing loop byte for byte."""
    pc = PageCache(capacity_blocks=8)
    hits, runs = pc.lookup_many(1, [0, 0, 1])
    assert hits == 0
    assert runs == [(0, 1), (0, 2)]


def test_pagecache_lookup_many_all_hits_and_empty():
    pc = PageCache(capacity_blocks=8)
    pc.insert_many(1, 0, 3)
    assert pc.lookup_many(1, [0, 1, 2]) == (3, [])
    assert pc.lookup_many(1, []) == (0, [])


def test_pagecache_lookup_many_updates_recency():
    pc = PageCache(capacity_blocks=2)
    pc.insert(1, 0)
    pc.insert(1, 1)
    pc.lookup_many(1, [0])  # 0 becomes MRU
    pc.insert(1, 2)  # evicts 1
    assert pc.contains(1, 0) and pc.contains(1, 2)
    assert not pc.contains(1, 1)


def test_pagecache_insert_many_evicts_like_per_block_inserts():
    pc = PageCache(capacity_blocks=2)
    pc.insert_many(1, 0, 5)  # run longer than the cache
    # Per-block insertion order leaves the run's tail resident.
    assert not pc.contains(1, 2)
    assert pc.contains(1, 3) and pc.contains(1, 4)
    assert len(pc) == 2


def test_pagecache_insert_many_refreshes_recency():
    pc = PageCache(capacity_blocks=3)
    pc.insert(1, 9)
    pc.insert_many(1, 0, 2)
    pc.insert_many(1, 9, 1)  # refresh, no growth
    pc.insert(1, 5)  # evicts block 0 (LRU), not 9
    assert pc.contains(1, 9) and not pc.contains(1, 0)


def test_pagecache_insert_many_zero_capacity_retains_nothing():
    pc = PageCache(capacity_blocks=0)
    pc.insert_many(1, 0, 64)
    assert len(pc) == 0
    assert not pc.contains(1, 0)
    # ...and the LRU stays usable for lookups afterwards.
    hits, runs = pc.lookup_many(1, [0, 1])
    assert hits == 0 and runs == [(0, 2)]


def test_pagecache_insert_many_nonpositive_count_is_noop():
    pc = PageCache(capacity_blocks=4)
    pc.insert_many(1, 0, 0)
    pc.insert_many(1, 0, -3)
    assert len(pc) == 0
