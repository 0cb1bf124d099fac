"""The iod's sharer directory, kept as runs of block numbers.

``sync_write`` coherence needs to know which client nodes' cache
modules may hold a copy of which block: one the node read through its
cache, flushed from it, or ``sync_write``-d through it.  Requests
arrive as ranges and client evictions are silent, so the directory
only ever grows with that traffic; it therefore remembers, per file
and per node, sorted runs of *logical* block numbers (the coordinate
``InvalidateRequest`` speaks) instead of one entry per block
(DESIGN.md §17).
"""

from __future__ import annotations

from repro.cache.ranges import ByteRanges


class SharerDirectory:
    """``file_id -> {node name -> runs of block numbers it may cache}``.

    A file one node holds as one run (the common case: a file written
    or read by one node) is kept inline as ``(node, first, end)``; it
    becomes ``{node: ByteRanges}`` on a second node or a disjoint run.
    """

    __slots__ = ("_files",)

    def __init__(self) -> None:
        self._files: dict[
            int, tuple[str, int, int] | dict[str, ByteRanges]
        ] = {}

    def _nodes(self, file_id: int) -> dict[str, ByteRanges] | None:
        """The file's ``{node: runs}`` form (promoting an inline one)."""
        entry = self._files.get(file_id)
        if type(entry) is tuple:
            node, first, end = entry
            entry = self._files[file_id] = {node: ByteRanges([(first, end)])}
        return entry

    def note(self, file_id: int, first: int, end: int, node: str) -> None:
        """Record that ``node`` may now cache blocks ``[first, end)``."""
        if first >= end:
            return
        entry = self._files.get(file_id)
        if entry is None:
            self._files[file_id] = (node, first, end)
            return
        if type(entry) is tuple and entry[0] == node:
            _, lo, hi = entry
            if first <= hi and lo <= end:  # overlaps or touches
                self._files[file_id] = (node, min(lo, first), max(hi, end))
                return
        nodes = self._nodes(file_id)
        runs = nodes.get(node)
        if runs is None:
            runs = nodes[node] = ByteRanges()
        runs.add(first, end)

    def sharers(self, file_id: int, block: int) -> set[str]:
        """The nodes that may cache ``block`` of ``file_id``."""
        entry = self._files.get(file_id)
        if type(entry) is tuple:
            node, first, end = entry
            return {node} if first <= block < end else set()
        return {
            node
            for node, runs in (entry or {}).items()
            if runs.covers(block, block + 1)
        }

    def invalidate(
        self, file_id: int, first: int, end: int, writer: str | None
    ) -> dict[str, list[int]]:
        """Forget every node's copy of blocks ``[first, end)`` except
        ``writer``'s (its cache took the write itself; ``None`` when no
        cache did).

        Returns the ascending blocks each other node held.  Nodes are
        ordered by (first block held, name) — the order a block-by-block
        walk over sorted sharers meets them — because the caller's
        iteration order becomes the order invalidations hit the wire.
        """
        entry = self._files.get(file_id)
        if entry is None:
            return {}
        if type(entry) is tuple:
            node, lo, hi = entry
            if node == writer or hi <= first or end <= lo:
                return {}
        nodes = self._nodes(file_id)
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

    def stats(self) -> dict[str, int]:
        """Tracked files, runs and blocks (a block counts once per node)."""
        runs = blocks = 0
        for entry in self._files.values():
            if type(entry) is tuple:
                runs += 1
                blocks += entry[2] - entry[1]
            else:
                runs += sum(len(r) for r in entry.values())
                blocks += sum(r.total for r in entry.values())
        return {
            "directory_files": len(self._files),
            "directory_runs": runs,
            "directory_blocks": blocks,
        }
