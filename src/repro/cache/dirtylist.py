"""The dirty list: blocks awaiting write-back, in first-dirtied order."""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockState, CacheBlock


class DirtyList:
    """Ordered set of dirty blocks.

    Insertion order == first-dirtied order, so the flusher naturally
    writes back the oldest dirty data first (bounding staleness at the
    iod to roughly one flush period).
    """

    def __init__(self) -> None:
        self._blocks: dict[CacheBlock, None] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block: CacheBlock) -> bool:
        return block in self._blocks

    def add(self, block: CacheBlock) -> None:
        """Track a dirty block; re-adding keeps the original position."""
        if block.state is not BlockState.DIRTY:
            raise ValueError(f"{block!r} is not dirty")
        self._blocks.setdefault(block, None)

    def discard(self, block: CacheBlock) -> None:
        """Stop tracking a block (no-op if untracked)."""
        self.discard_run((block,))

    def discard_run(self, blocks: _t.Iterable[CacheBlock]) -> None:
        """Stop tracking each block (untracked ones are ignored)."""
        pop = self._blocks.pop
        for block in blocks:
            pop(block, None)

    def snapshot(self) -> list[CacheBlock]:
        """Current dirty blocks, oldest-first (for one flush round)."""
        return list(self._blocks)

    def drain(self) -> list[CacheBlock]:
        """Snapshot and clear (the flusher re-adds anything that
        re-dirties mid-flight via the write path)."""
        blocks = list(self._blocks)
        self._blocks.clear()
        return blocks
