"""Sequential readahead inside the cache module.

Paper, Section 5 (future work): "runtime support to detect and exploit
inter-application sharing patterns, for possible combining of I/O
requests, *prefetching*, and other optimizations."

This implements the classic kernel readahead policy at the cache-module
level: a per-file sequential-run detector with a window that doubles on
confirmed sequentiality (up to a cap) and resets on a non-sequential
access.  Prefetches are issued asynchronously after the demand fetch
returns, so they hide iod latency without delaying the foreground
request; prefetched blocks land in the shared cache, so — true to the
paper's theme — one application's readahead also feeds its neighbours.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.shared import shared_state
from repro.pvfs.protocol import FileHandle

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cache.module import CacheModule


@dataclasses.dataclass
class _FileStream:
    """Readahead state for one file (shared by the node's processes)."""

    next_expected_block: int = -1
    #: Current window, in blocks.
    window: int = 0
    sequential_runs: int = 0


@shared_state("_streams", "_inflight")
class ReadAhead:
    """Per-node sequential prefetcher."""

    def __init__(
        self,
        module: "CacheModule",
        initial_window: int = 4,
        max_window: int = 32,
    ) -> None:
        if initial_window < 1 or max_window < initial_window:
            raise ValueError(
                f"bad readahead windows {initial_window}/{max_window}"
            )
        self.module = module
        self.env = module.env
        self.initial_window = initial_window
        self.max_window = max_window
        self._streams: dict[int, _FileStream] = {}
        #: Blocks currently being prefetched (avoid duplicate issues).
        self._inflight: set[tuple[int, int]] = set()

    def observe_read(
        self, handle: FileHandle, first_block: int, n_blocks: int
    ) -> None:
        """Called by the module on every read; may start a prefetch."""
        stream = self._streams.setdefault(handle.file_id, _FileStream())
        if first_block == stream.next_expected_block:
            stream.sequential_runs += 1
            stream.window = min(
                self.max_window,
                max(self.initial_window, stream.window * 2),
            )
        else:
            stream.sequential_runs = 0
            stream.window = 0
        stream.next_expected_block = first_block + n_blocks
        if stream.window > 0:
            self._issue(handle, stream.next_expected_block, stream.window)

    def _issue(self, handle: FileHandle, start_block: int, count: int) -> None:
        wanted = []
        manager = self.module.manager
        for block_no in range(start_block, start_block + count):
            key = (handle.file_id, block_no)
            if key in self._inflight or manager.lookup(key) is not None:
                continue
            wanted.append(block_no)
            self._inflight.add(key)
        if not wanted:
            return
        # Cap: never let prefetch consume more than a quarter of the
        # cache's free pool (demand requests come first).
        budget = max(0, len(manager.freelist) // 4)
        for key in [(handle.file_id, b) for b in wanted[budget:]]:
            self._inflight.discard(key)
        wanted = wanted[:budget]
        if not wanted:
            return
        self.module.metrics.inc("prefetch.issued", len(wanted))
        self.env.process(
            self._prefetch(handle, wanted),
            name=f"readahead-{self.module.node.name}-{handle.file_id}",
        )

    def _prefetch(
        self, handle: FileHandle, block_nos: list[int]
    ) -> _t.Generator:
        """Background fetch of ``block_nos`` into the shared cache."""
        manager = self.module.manager
        owned = {}
        try:
            for block_no in block_nos:
                key = (handle.file_id, block_no)
                if manager.table.get(key) is not None:
                    continue  # demand fetch beat us to it
                block, resident = manager.probe(key)
                if block is None:
                    block, resident = yield from manager.get_or_allocate(key)
                if not resident:
                    owned[block_no] = block
            if owned:
                from repro.cache.fsm import FSMState, RequestFSM

                fsm = RequestFSM(self.env)
                fsm.to(FSMState.LOOKUP)
                yield from self.module._fetch(
                    handle, fsm, owned, {}, want_data=True
                )
                self.module.metrics.inc("prefetch.completed", len(owned))
        finally:
            for block_no in block_nos:
                self._inflight.discard((handle.file_id, block_no))

    def stream_state(self, file_id: int) -> _FileStream | None:
        """Inspection helper for tests."""
        return self._streams.get(file_id)
