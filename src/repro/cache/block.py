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
        #: Invalidated while pinned: dropped as soon as the last pin
        #: releases (deferred coherence eviction).
        self.doomed = False
        #: Clock-sweep generation that last handled this block; lets
        #: the policy skip already-selected blocks without id() sets.
        self.sweep_mark = 0

    # -- state transitions ---------------------------------------------------
    def assign(self, key: BlockKey) -> None:
        """FREE -> PENDING under ``key``."""
        if self.state is not BlockState.FREE:
            raise RuntimeError(f"assign on non-free block {self!r}")
        self.key = key
        self.state = BlockState.PENDING
        self.refbit = True

    def ready(self, env: "Environment") -> "Event":
        """The event a waiter yields while the block is PENDING.

        Waiters register before :meth:`make_ready`/:meth:`reset` run
        (both are synchronous), so an event that was never asked for
        here is provably unobserved and need not exist.
        """
        event = self.ready_event
        if event is None:
            event = self.ready_event = env.event()
        return event

    def merge_fetch(self, start: int, end: int, data: bytes | None) -> None:
        """Merge a fetched range without clobbering dirty bytes."""
        self._check_bounds(start, end)
        if data is None:
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

    def make_ready(self) -> None:
        """PENDING -> CLEAN (or stays DIRTY if written while pending)."""
        if self.state is BlockState.PENDING:
            self.state = BlockState.CLEAN if self.dirty.is_empty() else (
                BlockState.DIRTY
            )
        event, self.ready_event = self.ready_event, None
        if event is not None and not event.triggered:
            event.succeed(self)

    def reset(self) -> None:
        """Any state -> FREE (eviction)."""
        if self.pins:
            raise RuntimeError(f"reset of pinned block {self!r}")
        event, self.ready_event = self.ready_event, None
        if event is not None and not event.triggered:
            event.fail(RuntimeError(f"block {self.index} evicted while pending"))
        self.state = BlockState.FREE
        self.key = None
        self.data = None
        self.valid.clear()
        self.dirty.clear()
        self.refbit = False
        self.dirty_epoch = 0
        self.doomed = False

    # -- helpers -----------------------------------------------------------------
    def read_slice(self, start: int, end: int) -> bytes | None:
        """Bytes of [start, end); None when running size-only."""
        self._check_bounds(start, end)
        if self.data is None:
            return None
        return bytes(self.data[start:end])

    def pin(self) -> None:
        """Prevent eviction while a copy is in progress."""
        self.pins += 1

    def unpin(self) -> None:
        """Release one pin."""
        if self.pins <= 0:
            raise RuntimeError(f"unpin of unpinned block {self!r}")
        self.pins -= 1

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
            f"pins={self.pins}{' ref' if self.refbit else ''}>"
        )
