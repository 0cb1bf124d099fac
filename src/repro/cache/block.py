"""Cache blocks and their lifecycle.

A block is one 4 KB cache frame.  States:

* ``FREE``    — on the free list, no identity.
* ``PENDING`` — allocated to a (file, block#) key with a fetch in
  flight; concurrent requesters for the same key wait on
  :attr:`CacheBlock.ready_event` instead of issuing duplicate fetches
  (this de-duplication is where much of the inter-application benefit
  comes from).
* ``CLEAN``   — valid data, identical to the iod's copy.
* ``DIRTY``   — locally written bytes not yet flushed.

Beside its state a block carries a *write-back mark* (Linux's
``PG_writeback`` beside ``PG_dirty``): :attr:`CacheBlock.writeback`
counts the writes carrying its bytes to the iod right now — a flush
batch, or a cached ``sync_write``'s write-through.  The flusher and the
harvester skip a marked block, so no flush ships bytes that are already
on the wire, and a marked block is never freed: a coherence
invalidation dooms it instead, and the last holder's ack frees it.

``valid``/``dirty`` are byte-interval sets within the block because
sub-block writes (the micro-benchmark's 1 KB and 2 KB request sizes)
populate blocks partially.
"""

from __future__ import annotations

import enum
import typing as _t

from repro.cache.ranges import ByteRanges

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment, Event


class BlockState(enum.Enum):
    """Lifecycle states of a cache frame."""

    FREE = "free"
    PENDING = "pending"
    CLEAN = "clean"
    DIRTY = "dirty"


BlockKey = tuple[int, int]  # (file_id, block_no)


class CacheBlock:
    """One cache frame."""

    __slots__ = (
        "index",
        "block_size",
        "state",
        "key",
        "data",
        "valid",
        "dirty",
        "refbit",
        "pins",
        "dirty_epoch",
        "ready_event",
        "doomed",
        "sweep_mark",
        "writeback",
        "flushing",
        "flushed_event",
        "hollow",
    )

    def __init__(self, index: int, block_size: int) -> None:
        self.index = index
        self.block_size = block_size
        self.state = BlockState.FREE
        self.key: BlockKey | None = None
        #: Real bytes, lazily allocated (None in size-only workloads).
        self.data: bytearray | None = None
        self.valid = ByteRanges()
        self.dirty = ByteRanges()
        #: Clock reference bit (approximate LRU).
        self.refbit = False
        #: Pinned blocks (mid-copy) are not evictable.
        self.pins = 0
        #: Bumped on every dirtying write; the flusher only marks a
        #: block clean if the epoch it captured is still current.
        self.dirty_epoch = 0
        #: Fires when the fetch lands.  Created by the first *waiter*
        #: (:meth:`ready`), so a PENDING block nobody waits on costs
        #: no event; ``None`` otherwise.
        self.ready_event: "Event | None" = None
        #: Invalidated while PENDING or pinned: out of the hash table,
        #: and freed once its fetch lands and its last pin releases
        #: (deferred coherence eviction).
        self.doomed = False
        #: Clock-sweep generation that last handled this block; lets
        #: the policy skip already-selected blocks without id() sets.
        self.sweep_mark = 0
        #: Holders of the write-back mark: a flush batch and cached
        #: ``sync_write``s whose bytes are on the wire.  A count, as
        #: two ``sync_write``s of one block from one node may both be
        #: in flight (their shared connection keeps them in order).
        self.writeback = 0
        #: One of the holders is a flush batch (at most one is).  A
        #: ``sync_write`` waits for it: the batch and the write-through
        #: travel on different connections, and the batch's older
        #: bytes must not land at the iod after the newer ones.
        self.flushing = False
        #: Fires when the flush batch's ack lands.  Created by the
        #: first waiter (:meth:`flushed`), as :attr:`ready_event` is.
        self.flushed_event: "Event | None" = None
        #: A size-only fetch made bytes valid that :attr:`data` lacks
        #: (into a block without bytes it leaves ``data`` None instead):
        #: a read that wants bytes must fetch them again.
        self.hollow = False

    # -- state transitions ---------------------------------------------------
    def ready(self, env: "Environment") -> "Event":
        """The event a waiter yields while the block is PENDING.

        Waiters register before :func:`ready_run` or
        :meth:`FreeList.release_run` runs (both are synchronous), so an
        event that was never asked for here is provably unobserved and
        need not exist.
        """
        event = self.ready_event
        if event is None:
            event = self.ready_event = env.event()
        return event

    def flushed(self, env: "Environment") -> "Event":
        """The event a ``sync_write`` yields while a flush batch holds
        this block's mark; the batch's ack fires it."""
        event = self.flushed_event
        if event is None:
            event = self.flushed_event = env.event()
        return event

    def merge_fetch(self, start: int, end: int, data: bytes | None) -> None:
        """Merge a fetched range without clobbering dirty bytes."""
        self._check_bounds(start, end)
        if data is None:
            if self.data is not None:
                self.hollow = True
            self.valid.add(start, end)
            return
        buf = self._buffer()
        for lo, hi in self.dirty.gaps(start, end):
            buf[lo:hi] = data[lo - start : hi - start]
        self.valid.add(start, end)

    def write(self, start: int, end: int, data: bytes | None) -> None:
        """Record locally written bytes; block becomes DIRTY."""
        self._check_bounds(start, end)
        if self.state is BlockState.FREE:
            raise RuntimeError(f"write to free block {self!r}")
        if data is not None:
            self._buffer()[start:end] = data
        self.valid.add(start, end)
        self.dirty.add(start, end)
        self.state = BlockState.DIRTY
        self.dirty_epoch += 1
        self.refbit = True

    def mark_clean(self, epoch: int) -> bool:
        """Flusher callback: clean if no write raced the flush."""
        if self.state is BlockState.DIRTY and self.dirty_epoch == epoch:
            self.dirty.clear()
            self.state = BlockState.CLEAN
            return True
        return False

    # -- helpers -----------------------------------------------------------------
    def read_slice(self, start: int, end: int) -> bytes | None:
        """Bytes of [start, end); None when running size-only."""
        self._check_bounds(start, end)
        if self.data is None:
            return None
        return bytes(self.data[start:end])

    @property
    def is_evictable(self) -> bool:
        """True for unpinned CLEAN/DIRTY blocks."""
        return (
            self.state in (BlockState.CLEAN, BlockState.DIRTY)
            and self.pins == 0
        )

    def _buffer(self) -> bytearray:
        if self.data is None:
            self.data = bytearray(self.block_size)
        return self.data

    def _check_bounds(self, start: int, end: int) -> None:
        if not (0 <= start <= end <= self.block_size):
            raise ValueError(
                f"range [{start}, {end}) outside block of {self.block_size}"
            )

    def __repr__(self) -> str:
        return (
            f"<CacheBlock #{self.index} {self.state.value} key={self.key} "
            f"pins={self.pins}{' ref' if self.refbit else ''}"
            f"{f' wb={self.writeback}' if self.writeback else ''}>"
        )


# -- run forms ---------------------------------------------------------------
# The miss path moves blocks a run at a time (DESIGN.md §14, "The miss
# path: runs and callback stages"); each transition below is defined
# once, for a run, and a single block is a run of one.  The reverse
# transition, any state -> FREE, is part of returning the frame to the
# pool (:meth:`FreeList.release_run`).


def assign_run(
    frames: _t.Iterable[CacheBlock], keys: _t.Iterable[BlockKey]
) -> None:
    """FREE -> PENDING for each frame under its key."""
    free = BlockState.FREE
    pending = BlockState.PENDING
    for frame, key in zip(frames, keys):
        if frame.state is not free:
            raise RuntimeError(f"assign on non-free block {frame!r}")
        frame.key = key
        frame.state = pending
        frame.refbit = True


def ready_run(
    blocks: _t.Iterable[CacheBlock],
    doomed: _t.Callable[[CacheBlock], None] | None = None,
) -> None:
    """PENDING -> CLEAN (DIRTY if written while pending) for each block,
    waking its waiters.  ``doomed(block)``, if given, runs for each
    doomed block right after its transition, before the next block's."""
    pending = BlockState.PENDING
    for block in blocks:
        if block.state is pending:
            # ``dirty.is_empty()``, without the call.
            block.state = BlockState.DIRTY if block.dirty._bounds else (
                BlockState.CLEAN
            )
        event, block.ready_event = block.ready_event, None
        if event is not None and not event.triggered:
            event.succeed(block)
        if block.doomed and doomed is not None:
            doomed(block)


def unpin_run(blocks: _t.Iterable[CacheBlock]) -> None:
    """Release one pin of each block."""
    for block in blocks:
        if block.pins <= 0:
            raise RuntimeError(f"unpin of unpinned block {block!r}")
        block.pins -= 1
