"""The iod's sharer directory, kept as runs of block numbers.

``sync_write`` coherence needs to know which client nodes' cache
modules may hold a copy of which block.  Requests arrive as ranges
and client evictions are silent, so the directory only ever grows
with what has been read; it therefore remembers, per file and per
node, sorted runs of *logical* block numbers (the coordinate
``InvalidateRequest`` speaks) instead of one entry per block
(DESIGN.md §17).
"""

from __future__ import annotations

from repro.cache.ranges import ByteRanges


class SharerDirectory:
    """``file_id -> {node name -> runs of block numbers it may cache}``."""

    __slots__ = ("_files",)

    def __init__(self) -> None:
        self._files: dict[int, dict[str, ByteRanges]] = {}

    def note(self, file_id: int, first: int, end: int, node: str) -> None:
        """Record that ``node`` may now cache blocks ``[first, end)``."""
        if first >= end:
            return
        nodes = self._files.setdefault(file_id, {})
        runs = nodes.get(node)
        if runs is None:
            runs = nodes[node] = ByteRanges()
        runs.add(first, end)

    def sharers(self, file_id: int, block: int) -> set[str]:
        """The nodes that may cache ``block`` of ``file_id``."""
        return {
            node
            for node, runs in self._files.get(file_id, {}).items()
            if runs.covers(block, block + 1)
        }

    def invalidate(
        self, file_id: int, first: int, end: int, writer: str
    ) -> dict[str, list[int]]:
        """Forget every node's copy of blocks ``[first, end)`` except
        ``writer``'s (its cache took the write itself).

        Returns the ascending blocks each other node held.  Nodes are
        ordered by (first block held, name) — the order a block-by-block
        walk over sorted sharers meets them — because the caller's
        iteration order becomes the order invalidations hit the wire.
        """
        nodes = self._files.get(file_id)
        if nodes is None:
            return {}
        held = []
        for node, runs in nodes.items():
            if node != writer:
                overlap = runs.intersect(first, end)
                if overlap:
                    runs.remove(first, end)
                    held.append((overlap[0][0], node, overlap))
        for _, node, _ in held:
            if not nodes[node]:
                del nodes[node]
        if not nodes:
            del self._files[file_id]
        held.sort()
        return {
            node: [block for lo, hi in overlap for block in range(lo, hi)]
            for _, node, overlap in held
        }

    def forget(self, file_id: int) -> None:
        """Drop all state of a removed file."""
        self._files.pop(file_id, None)

    def stats(self) -> dict[str, int]:
        """Tracked files, runs and blocks (a block counts once per node)."""
        per_node = [
            runs for nodes in self._files.values() for runs in nodes.values()
        ]
        return {
            "directory_files": len(self._files),
            "directory_runs": sum(len(runs) for runs in per_node),
            "directory_blocks": sum(runs.total for runs in per_node),
        }
