"""Asynchronous disk writeback (the iod node's pdflush).

PVFS iods write stripe data with ordinary ``write()`` calls: the bytes
land in the OS page cache and are acknowledged immediately; a kernel
writeback thread pushes them to the platter later.  Modelling this is
essential for the baseline's write latencies (network-bound, not
disk-bound) and for the flusher's effectiveness.

What the daemon owes the disk is a set of dirty *pages*, keyed
``(file_id, local page)`` in the order they were first dirtied — not a
queue of writes:

* **Absorption** — writing a page that is already dirty (and not yet
  picked for writeback) costs the disk nothing: the page is written
  once, with whatever bytes it holds by then.
* **Runs** — the daemon takes the oldest dirty page plus every
  contiguous dirty page after it in the same file and writes them as
  one disk request, as the elevator merges adjacent dirty blocks.
* **Re-dirtying** — a run's pages are clean again the moment they are
  picked, so a page re-written while its run is on the platter is dirty
  again and written again (Linux's ``PG_dirty`` beside
  ``PG_writeback``).

Backpressure: Linux throttles writers once dirty memory exceeds a
threshold; we do the same with ``max_dirty_bytes``, counting dirty
pages plus the run in flight.  A writer whose fresh pages would cross
it blocks until a run lands, which is how sustained writes degrade to
disk speed.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.disk.filesystem import BLOCK_SIZE
from repro.disk.model import DiskModel
from repro.sim import Environment
from repro.svc import Service, handles

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


@dataclasses.dataclass
class WritebackItem:
    """A byte range of one file: what :meth:`WritebackDaemon.submit`
    dirties, and the run the daemon then writes."""

    file_id: int
    local_offset: int
    nbytes: int

    #: Dispatch key of the writeback handler.
    kind: _t.ClassVar[str] = "writeback"


class WritebackDaemon(Service):
    """Background writer of one disk's dirty pages, oldest run first.

    ``drain()`` waits until no page is dirty or in flight, and a bare
    ``stop()`` reports those pages (and their bytes) as dropped.
    """

    def __init__(
        self,
        env: Environment,
        disk: DiskModel,
        max_dirty_bytes: int = 16 * 2**20,
        node: "Node | None" = None,
        page_size: int = BLOCK_SIZE,
    ) -> None:
        if max_dirty_bytes <= 0:
            raise ValueError("max_dirty_bytes must be positive")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        name = f"writeback-{node.name}" if node is not None else "writeback"
        super().__init__(env, name, node=node)
        self.disk = disk
        self.max_dirty_bytes = max_dirty_bytes
        self.page_size = page_size
        #: Dirty pages not yet picked, oldest first (the dict is an
        #: insertion-ordered set: re-dirtying keeps a page's place).
        self._dirty: dict[tuple[int, int], None] = {}
        #: Pages of the run on the platter.
        self._writing = 0
        #: Fires (and is replaced) when pages are dirtied while the
        #: pump waits for work.
        self._dirtied = env.event()
        #: Fires (and is replaced) whenever a run lands while anyone
        #: waits on it: writers blocked on the throttle, drain().
        self._drained = env.event()
        self.runs_written = 0
        self.bytes_written = 0
        self.throttle_waits = 0

    def _on_start(self) -> None:
        self.spawn(self._pump(), name=self.name)

    @property
    def dirty_pages(self) -> int:
        """Pages owed to the disk: dirty ones plus the run in flight."""
        return len(self._dirty) + self._writing

    @property
    def dirty_bytes(self) -> int:
        """Bytes of :attr:`dirty_pages` (what the throttle counts)."""
        return self.dirty_pages * self.page_size

    def submit(self, item: WritebackItem) -> _t.Generator:
        """Process body: dirty the pages ``item`` covers, blocking on
        the dirty throttle first if its fresh pages would cross it."""
        if item.nbytes < 0:
            raise ValueError(f"negative writeback size {item.nbytes}")
        size = self.page_size
        file_id = item.file_id
        pages = [
            (file_id, page)
            for page in range(
                item.local_offset // size,
                -(-(item.local_offset + item.nbytes) // size),
            )
        ]
        dirty = self._dirty
        while True:
            # Re-read after every wakeup: the pump may have picked some
            # of these pages meanwhile, making them fresh again.
            fresh = sum(1 for key in pages if key not in dirty)
            if (self.dirty_pages + fresh) * size <= self.max_dirty_bytes:
                break
            self.throttle_waits += 1
            yield self._drained
        for key in pages:
            dirty[key] = None
        stats = self.svc_stats
        if len(dirty) > stats.queue_high_water:
            stats.queue_high_water = len(dirty)
        dirtied = self._dirtied
        if dirtied.callbacks:
            self._dirtied = self.env.event()
            dirtied.succeed()

    def _pump(self) -> _t.Generator:
        dirty = self._dirty
        size = self.page_size
        while True:
            if not dirty:
                yield self._dirtied
                continue
            key = next(iter(dirty))
            file_id, first = key
            del dirty[key]
            end = first + 1
            while (file_id, end) in dirty:
                del dirty[(file_id, end)]
                end += 1
            self._writing = end - first
            yield from self.dispatch(
                WritebackItem(file_id, first * size, (end - first) * size)
            )

    @handles("writeback")
    def _handle_writeback(self, run: WritebackItem, endpoint=None) -> _t.Generator:
        yield self.env.process(
            self.disk.io(run.file_id, run.local_offset, run.nbytes, write=True)
        )
        self._writing = 0
        self.runs_written += 1
        self.bytes_written += run.nbytes
        drained = self._drained
        if drained.callbacks:
            # Without a waiter the event is kept for the next one: an
            # event nobody waits on would be processed for nothing.
            self._drained = self.env.event()
            drained.succeed()

    def _drain(self) -> _t.Generator:
        """Wait until no page is dirty or in flight."""
        while not self.idle():
            yield self._drained

    def _dropped(self) -> dict[str, int]:
        return {
            "dirty_pages": self.dirty_pages,
            "dirty_bytes": self.dirty_bytes,
        }

    def idle(self) -> bool:
        """True when no page is dirty or in flight."""
        return not self.dirty_pages
