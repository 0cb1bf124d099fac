"""The free list, with low/high watermarks driving the harvester.

The paper: "Rather than allocate/free blocks on demand, which can
incur higher latencies at those points, we have a harvester thread
that becomes active whenever the number of blocks in the free list
falls below a certain threshold."  Allocation therefore *waits* when
the list runs dry (the paper observes exactly this for large writes),
and every drop below the low watermark pokes the harvester.
"""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockState, CacheBlock
from repro.sim import Environment, Store, StoreGet


class FreeList:
    """FIFO pool of FREE blocks with watermark signalling."""

    def __init__(
        self,
        env: Environment,
        blocks: _t.Iterable[CacheBlock],
        low_blocks: int,
        high_blocks: int,
    ) -> None:
        self.env = env
        self.low_blocks = low_blocks
        self.high_blocks = high_blocks
        self._store = Store(env)
        self._count = 0
        for block in blocks:
            if block.state is not BlockState.FREE:
                raise ValueError(f"{block!r} is not free")
            self._store.put_nowait(block)
            self._count += 1
        #: Called (synchronously) whenever the free count drops below
        #: the low watermark; the harvester hooks this to wake up.
        self.on_low: _t.Callable[[], None] | None = None
        self.allocation_waits = 0

    def __len__(self) -> int:
        # _count goes negative while allocators are queued; as a pool
        # size, clamp at zero.
        return max(0, self._count)

    @property
    def below_low(self) -> bool:
        """True when the free count is under the low watermark."""
        return self._count < self.low_blocks

    @property
    def below_high(self) -> bool:
        """True when the free count is under the high watermark."""
        return self._count < self.high_blocks

    def acquire(self) -> _t.Generator:
        """Process body: take a FREE block (waits when the pool is dry).

        The wait path is the paper's "writes may need to block for
        availability of cache space".
        """
        if self._count == 0:
            self.allocation_waits += 1
        self._count -= 1  # may go negative: that many waiters queued
        if self._count < self.low_blocks and self.on_low is not None:
            self.on_low()
        block = yield self._store.get()
        return block

    @property
    def takeable(self) -> int:
        """How many blocks :meth:`take_run` may take: as many as
        :meth:`acquire` calls could in a row without waiting or
        signalling the harvester (a take that keeps the list at or above
        the low watermark, when a harvester listens)."""
        count = self._count
        if self.on_low is not None:
            count -= self.low_blocks
        return count if count > 0 else 0

    def take_run(self, n: int) -> list[CacheBlock] | None:
        """Take ``n`` FREE blocks in place of ``n`` :meth:`acquire`
        calls, or ``None``.

        ``n`` must not exceed :attr:`takeable`.  The engine books the
        ``n`` satisfied gets' scheduler steps here
        (``Environment.take_turn``); on ``None`` it refused, nothing
        changed, and :meth:`acquire` must wait instead.
        """
        if not self.env.take_turn(StoreGet, n):
            return None
        self._count -= n
        # Store.get_nowait, n times: items are queued (count > 0), so
        # nobody waits.
        popleft = self._store._items.popleft
        frames = []
        for _ in range(n):
            frames.append(popleft())
        return frames

    def release_run(self, blocks: _t.Iterable[CacheBlock]) -> None:
        """Return evicted blocks to the pool, one at a time.

        Each block is reset to FREE — it loses its key, bytes and
        flags, and a pending fetch's waiters see their ``ready_event``
        fail — and is then handed to the oldest waiting allocator, or
        pooled.  Block by block, not reset-all-then-release-all: a
        failed ``ready_event`` is queued before the same frame's
        release can wake a waiter, which fixes the order of the two
        events in the schedule.
        """
        free = BlockState.FREE
        store = self._store
        getters = store._getters
        items = store._items
        for block in blocks:
            if block.pins:
                raise RuntimeError(f"reset of pinned block {block!r}")
            event, block.ready_event = block.ready_event, None
            if event is not None and not event.triggered:
                event.fail(
                    RuntimeError(f"block {block.index} evicted while pending")
                )
            block.state = free
            block.key = None
            block.data = None
            # ByteRanges.clear of both sets, without the calls.
            block.valid._bounds.clear()
            block.dirty._bounds.clear()
            block.refbit = False
            block.dirty_epoch = 0
            block.doomed = False
            block.hollow = False
            # Store.put_nowait (the store is unbounded): getters only
            # queue on an empty pool, so the oldest takes this block.
            if getters:
                getters.popleft().succeed(block)
            else:
                items.append(block)
            self._count += 1
