"""The iod node's OS page cache (timing-only LRU).

The paper's iods issue plain filesystem calls, so Linux's page cache
sits under them.  This is why the *no-caching* PVFS baseline is
network-bound (not disk-bound) once a file's working set has been read
once — a property several of the paper's figures depend on.

This cache tracks only *which* blocks are memory-resident; the bytes
themselves live in :class:`~repro.disk.filesystem.LocalFileStore`.
"""

from __future__ import annotations

import typing as _t
from collections import OrderedDict

#: Keys are ``file_id << _BLOCK_BITS | block_no``: one int per resident
#: block instead of a tuple of two (4 PB per file at 4 KB blocks).
_BLOCK_BITS = 40


def _bad_block(block_no: int) -> ValueError:
    return ValueError(f"block number {block_no} outside [0, 2**{_BLOCK_BITS})")


def _key(file_id: int, block_no: int) -> int:
    """Packed key of one block: loud, rather than aliasing another file."""
    if block_no >> _BLOCK_BITS:
        raise _bad_block(block_no)
    return file_id << _BLOCK_BITS | block_no


class PageCache:
    """Exact-LRU set of ``(file_id, block_no)`` keys."""

    def __init__(self, capacity_blocks: int = 16384) -> None:
        if capacity_blocks < 0:
            raise ValueError(f"negative capacity {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    def lookup(self, file_id: int, block_no: int) -> bool:
        """Check residency and update recency; counts hit/miss."""
        key = _key(file_id, block_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def lookup_many(
        self, file_id: int, block_nos: _t.Iterable[int]
    ) -> tuple[int, list[tuple[int, int]]]:
        """Probe a whole request's blocks in one pass.

        Returns ``(hits, missing_runs)`` where ``missing_runs``
        coalesces consecutive missing block numbers into
        ``(first_block, n_blocks)`` disk-run candidates.  Exactly like
        per-block :meth:`lookup` calls followed by the caller
        coalescing: recency and the hit/miss counters update per
        block, and a non-consecutive (or repeated) missing block
        closes the current run.
        """
        lru = self._lru
        move = lru.move_to_end
        hits = 0
        misses = 0
        runs: list[tuple[int, int]] = []
        run_start: int | None = None
        prev = 0
        base = file_id << _BLOCK_BITS
        for block in block_nos:
            if block >> _BLOCK_BITS:
                raise _bad_block(block)
            key = base | block
            if key in lru:
                move(key)
                hits += 1
                continue
            misses += 1
            if run_start is None:
                run_start = prev = block
            elif block == prev + 1:
                prev = block
            else:
                runs.append((run_start, prev - run_start + 1))
                run_start = prev = block
        if run_start is not None:
            runs.append((run_start, prev - run_start + 1))
        self.hits += hits
        self.misses += misses
        return hits, runs

    def insert(self, file_id: int, block_no: int) -> None:
        """Make a block resident, evicting the LRU block if full."""
        if self.capacity_blocks == 0:
            return
        key = _key(file_id, block_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            return
        while len(self._lru) >= self.capacity_blocks:
            self._lru.popitem(last=False)
        self._lru[key] = None

    def insert_many(
        self, file_id: int, first_block: int, n_blocks: int
    ) -> None:
        """Make a run of ``n_blocks`` consecutive blocks resident.

        Bulk :meth:`insert`: existing blocks refresh recency, new ones
        evict from the LRU end while the cache is full, and a
        zero-capacity cache retains nothing (runs larger than the
        capacity leave only the run's tail resident, matching the
        per-block insertion order).
        """
        if self.capacity_blocks == 0 or n_blocks <= 0:
            return
        lru = self._lru
        capacity = self.capacity_blocks
        first = _key(file_id, first_block)
        _key(file_id, first_block + n_blocks - 1)  # the far end fits too
        for key in range(first, first + n_blocks):
            if key in lru:
                lru.move_to_end(key)
                continue
            while len(lru) >= capacity:
                lru.popitem(last=False)
            lru[key] = None

    def contains(self, file_id: int, block_no: int) -> bool:
        """Residency probe without recency update or counters."""
        return _key(file_id, block_no) in self._lru

    def invalidate(self, file_id: int, block_no: int) -> bool:
        """Drop a block (e.g. on file deletion); True if it was present."""
        return self._lru.pop(_key(file_id, block_no), False) is None

    @property
    def hit_ratio(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
