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

    def acquire_now(self) -> CacheBlock | None:
        """Take a FREE block in place of :meth:`acquire`, or ``None``.

        Succeeds only when :meth:`acquire` could not wait and would not
        signal the harvester — a block is free and the take stays at or
        above the low watermark — and the engine books the satisfied
        get's scheduler step here (``Environment.take_turn``).  On
        ``None`` nothing changed: drive :meth:`acquire` instead.
        """
        count = self._count
        if count <= 0 or (count <= self.low_blocks and self.on_low is not None):
            return None
        if not self.env.take_turn(StoreGet):
            return None
        self._count = count - 1
        return self._store.get_nowait()

    def release(self, block: CacheBlock) -> None:
        """Return a reset block to the pool."""
        if block.state is not BlockState.FREE:
            raise ValueError(f"release of non-free block {block!r}")
        self._store.put_nowait(block)
        self._count += 1
