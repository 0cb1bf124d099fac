"""Asynchronous disk writeback (the iod node's pdflush).

PVFS iods write stripe data with ordinary ``write()`` calls: the bytes
land in the OS page cache and are acknowledged immediately; a kernel
writeback thread pushes them to the platter later.  Modelling this is
essential for the baseline's write latencies (network-bound, not
disk-bound) and for the flusher's effectiveness.

Backpressure: Linux throttles writers once dirty memory exceeds a
threshold; we do the same with ``max_dirty_bytes`` — enqueueing blocks
when the backlog is too large, which is how sustained writes degrade
to disk speed.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.disk.model import DiskModel
from repro.sim import Environment
from repro.svc import Service, handles

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


@dataclasses.dataclass
class WritebackItem:
    file_id: int
    local_offset: int
    nbytes: int

    #: Dispatch key for the writeback service's mailbox.
    kind: _t.ClassVar[str] = "writeback"


class WritebackDaemon(Service):
    """FIFO background writer over one disk.

    The daemon's work queue is its :class:`~repro.svc.Mailbox`;
    ``drain()`` waits until both the queue and the dirty-byte gauge hit
    zero, and a bare ``stop()`` reports queued items (and their bytes)
    as dropped.
    """

    def __init__(
        self,
        env: Environment,
        disk: DiskModel,
        max_dirty_bytes: int = 16 * 2**20,
        node: "Node | None" = None,
    ) -> None:
        if max_dirty_bytes <= 0:
            raise ValueError("max_dirty_bytes must be positive")
        name = f"writeback-{node.name}" if node is not None else "writeback"
        super().__init__(env, name, node=node)
        self.disk = disk
        self.max_dirty_bytes = max_dirty_bytes
        self.dirty_bytes = 0
        #: Fires (and is replaced) whenever dirty_bytes drops while
        #: anyone waits on it: writers blocked on the throttle, drain().
        self._drained = env.event()
        self.items_written = 0
        self.bytes_written = 0
        self.throttle_waits = 0

    def _on_start(self) -> None:
        self.spawn(self._pump(), name=self.name)

    def submit(self, item: WritebackItem) -> _t.Generator:
        """Process body: enqueue a write, blocking on dirty throttle."""
        if item.nbytes < 0:
            raise ValueError(f"negative writeback size {item.nbytes}")
        while self.dirty_bytes + item.nbytes > self.max_dirty_bytes:
            self.throttle_waits += 1
            yield self._drained
        # Safe despite the yield above: the while condition re-reads
        # the gauge after every wakeup, so the increment never acts on
        # a stale reading.
        self.dirty_bytes += item.nbytes
        yield self.mailbox.put(item)

    def _pump(self) -> _t.Generator:
        while True:
            item: WritebackItem = yield self.mailbox.get()
            yield from self.dispatch(item)

    @handles("writeback")
    def _handle_writeback(self, item: WritebackItem, endpoint=None) -> _t.Generator:
        yield self.env.process(
            self.disk.io(item.file_id, item.local_offset, item.nbytes, write=True)
        )
        self.dirty_bytes -= item.nbytes
        self.items_written += 1
        self.bytes_written += item.nbytes
        drained = self._drained
        if drained.callbacks:
            # Without a waiter the event is kept for the next one: an
            # event nobody waits on would be processed for nothing.
            self._drained = self.env.event()
            drained.succeed()

    def _drain(self) -> _t.Generator:
        """Wait for the backlog and dirty gauge to empty."""
        while not self.idle():
            yield self._drained

    def _dropped(self) -> dict[str, int]:
        return {
            "queued_items": self.backlog,
            "dirty_bytes": self.dirty_bytes,
        }

    @property
    def backlog(self) -> int:
        """Queued writeback items."""
        return len(self.mailbox)

    def idle(self) -> bool:
        """True when nothing is queued or dirty."""
        return self.backlog == 0 and self.dirty_bytes == 0
