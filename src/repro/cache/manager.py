"""The buffer manager: the paper's "full-fledged buffer manager of
blocks, requiring the implementation of hash tables, free list and
dirty list"."""

from __future__ import annotations

import typing as _t

from repro.analysis.sanitize import atomic_section, maybe_install
from repro.analysis.shared import shared_state
from repro.cache.block import BlockKey, BlockState, CacheBlock
from repro.cache.clock import ClockPolicy, ExactLRUPolicy
from repro.cache.dirtylist import DirtyList
from repro.cache.freelist import FreeList
from repro.cache.hashtable import BlockHashTable
from repro.cluster.config import CacheConfig
from repro.metrics import Metrics
from repro.sim import Environment, Event


@shared_state("table", "freelist", "dirtylist", "policy", "_inflight")
class BufferManager:
    """Owns every cache frame of one node's cache module.

    Hot-path operations (``lookup``, ``insert``) are synchronous —
    atomic in the cooperative simulation, mirroring the short critical
    sections the paper protects with fine-grained locks.  The
    multi-step miss path yields (waiting for a free block), so
    duplicate fetches for one key are prevented with an in-flight
    reservation map: the second requester waits for the first one's
    allocation instead of allocating a twin.
    """

    def __init__(
        self,
        env: Environment,
        config: CacheConfig,
        metrics: Metrics,
        name: str = "cache",
    ) -> None:
        self.env = env
        self.config = config
        self.metrics = metrics
        self.name = name
        # Counter keys, formatted once (the allocation and eviction
        # ones are bumped on every miss).
        self._k_allocations = f"{name}.allocations"
        self._k_evictions = f"{name}.evictions"
        self._k_deferred = f"{name}.deferred_invalidations"
        self._k_invalidated = f"{name}.invalidated_blocks"
        self.blocks = [
            CacheBlock(i, config.block_size) for i in range(config.n_blocks)
        ]
        self.table = BlockHashTable(n_buckets_hint=2 * config.n_blocks)
        self.freelist = FreeList(
            env,
            self.blocks,
            low_blocks=config.low_blocks,
            high_blocks=config.high_blocks,
        )
        self.dirtylist = DirtyList()
        if config.replacement == "clock":
            self.policy: _t.Any = ClockPolicy()
        else:
            self.policy = ExactLRUPolicy()
        #: Keys being allocated -> the event rivals wait on, or None
        #: while no rival has shown up.
        self._inflight: dict[BlockKey, Event | None] = {}
        #: Opt-in runtime checker (REPRO_SANITIZE=1): validates the
        #: block-accounting invariant at scheduler-step granularity
        #: and arms the atomic_section race detector.  None in
        #: normal runs — the structures run their unwrapped methods.
        self.sanitizer = maybe_install(self)

    # -- residency -------------------------------------------------------------
    @property
    def n_resident(self) -> int:
        """Blocks currently in the hash table."""
        return len(self.table)

    @property
    def n_free(self) -> int:
        """Blocks currently on the free list."""
        return len(self.freelist)

    @property
    def n_dirty(self) -> int:
        """Blocks currently on the dirty list."""
        return len(self.dirtylist)

    def lookup(self, key: BlockKey) -> CacheBlock | None:
        """Hash probe; touches the replacement policy on a find."""
        block = self.table.get(key)
        if block is not None:
            self.policy.touch(block)
        return block

    def probe(self, key: BlockKey) -> tuple[CacheBlock | None, bool]:
        """Every case of :meth:`get_or_allocate` that needs no wait.

        ``(block, True)`` for a resident block (policy touched, as
        :meth:`lookup`); ``(block, False)`` for a fresh PENDING block
        whose free frame was taken in place (DESIGN.md §14, "In-place
        turns"); ``(None, False)`` — with nothing changed — when the
        caller must drive :meth:`get_or_allocate`: a rival holds the
        key's reservation, the free list is dry or the take would
        signal the harvester, or it is not this process's turn.
        """
        block = self.table.get(key)
        if block is not None:
            self.policy.touch(block)
            return block, True
        if key in self._inflight:
            return None, False
        block = self.freelist.acquire_now()
        if block is None:
            return None, False
        self._commit(key, block)
        return block, False

    def get_or_allocate(self, key: BlockKey) -> _t.Generator:
        """Process body: return ``(block, was_resident)``.

        The waiting counterpart of :meth:`probe`: misses allocate a
        fresh PENDING block, waiting on the free list if it is dry (the
        paper's blocking-for-cache-space).  Concurrent misses on one
        key coalesce onto a single block.
        """
        while True:
            block = self.table.get(key)
            if block is not None:
                self.policy.touch(block)
                return block, True
            if key in self._inflight:
                # Someone else is allocating this key: wait on their
                # reservation (materialised by its first waiter), then
                # re-probe (their block may even be gone again).
                pending = self._inflight[key]
                if pending is None:
                    pending = self._inflight[key] = self.env.event()
                yield pending
                continue
            # The flow analyzer's linear model cannot see that waiting
            # on a rival's reservation loops back to a fresh re-probe
            # (the `continue` above) before reaching this write.
            self._inflight[key] = None  # noqa: RPL100 - re-probed after wait
            try:
                block = yield from self.freelist.acquire()
            except BaseException:
                self._resolve_reservation(key, None)
                raise
            # The miss-probe of `table` happened before the freelist
            # wait, but a rival insert of this key is impossible: our
            # _inflight reservation (registered with no intervening
            # yield) makes rivals wait.
            self._commit(key, block)  # noqa: RPL100 - guarded by reservation
            return block, False

    def _commit(self, key: BlockKey, block: CacheBlock) -> None:
        """Make the FREE ``block`` the PENDING frame of ``key``.

        The one allocation commit of :meth:`probe` and
        :meth:`get_or_allocate`.  It must stay atomic (no yields): a
        second requester probing between insert and the reservation
        hand-off would see half-committed state.
        """
        with atomic_section(
            self.table, self.policy, label="get_or_allocate.commit"
        ):
            block.assign(key)
            self.table.insert(block)
            self.policy.admit(block)
            self._resolve_reservation(key, block)
        self.metrics.inc(self._k_allocations)

    def _resolve_reservation(
        self, key: BlockKey, block: CacheBlock | None
    ) -> None:
        """Drop ``key``'s reservation (if any), waking whoever waited."""
        reservation = self._inflight.pop(key, None)
        if reservation is not None:
            reservation.succeed(block)

    # -- dirty tracking ------------------------------------------------------------
    def note_write(self, block: CacheBlock) -> None:
        """Register a block the caller just dirtied."""
        self.dirtylist.add(block)

    def note_cleaned(self, block: CacheBlock, epoch: int) -> bool:
        """Flusher callback: mark clean unless a write raced the flush."""
        if block.mark_clean(epoch):
            self.dirtylist.discard(block)
            return True
        return False

    # -- eviction --------------------------------------------------------------------
    def evict(self, block: CacheBlock, force: bool = False) -> None:
        """Return a resident block to the free list.

        Dirty blocks may only be evicted with ``force`` (used by
        coherence invalidations, where the remote sync_write wins);
        the harvester must flush them first instead.
        """
        if block.state is BlockState.FREE:
            raise ValueError(f"evict of free block {block!r}")
        if block.pins:
            raise ValueError(f"evict of pinned block {block!r}")
        if block.state is BlockState.DIRTY and not force:
            raise ValueError(f"evict of dirty block {block!r} without force")
        # Eviction walks four structures; a yield between them would
        # leave a frame visible in none (or two) of them.
        with atomic_section(
            self.table,
            self.freelist,
            self.dirtylist,
            self.policy,
            label="evict",
        ):
            self.policy.forget(block)
            self.table.remove(block)
            self.dirtylist.discard(block)
            block.reset()
            self.freelist.release(block)
        self.metrics.inc(self._k_evictions)

    def invalidate(self, key: BlockKey) -> bool:
        """Coherence: drop ``key`` if resident (even dirty — the remote
        sync_write wins).  True when a copy was (or will be) dropped.

        A PENDING block is marked *doomed*: the iod snapshots the
        bytes for the in-flight fetch when the read *request* is
        handled, which can be before the racing sync_write lands
        there, so the data the fetch brings back may already be
        stale.  The fetch completes normally (its waiters still need
        an answer for this access) and the block is dropped the
        moment it is READY and unpinned.  A pinned block (mid-copy in
        some reader) is likewise doomed and dropped when the last pin
        releases — a kernel cannot rip a page out from under an
        in-progress copy either.
        """
        block = self.table.get(key)
        if block is None:
            return False
        if block.state is BlockState.PENDING:
            block.doomed = True
            self.metrics.inc(self._k_deferred)
            return True
        if block.pins:
            block.doomed = True
            self.metrics.inc(self._k_deferred)
            return True
        self.evict(block, force=True)
        self.metrics.inc(self._k_invalidated)
        return True

    def unpin(self, block: CacheBlock) -> None:
        """Release a pin, completing any deferred invalidation."""
        block.unpin()
        if block.doomed and block.pins == 0 and block.state in (
            BlockState.CLEAN,
            BlockState.DIRTY,
        ):
            self.evict(block, force=True)
            self.metrics.inc(self._k_invalidated)

    def select_victims(self, n: int) -> list[CacheBlock]:
        """Policy passthrough honouring clean preference."""
        return self.policy.select_victims(
            n, prefer_clean=self.config.prefer_clean_eviction
        )

    def resident_keys(self) -> set[BlockKey]:
        """Snapshot of resident keys (test/inspection helper)."""
        return {b.key for b in self.table.blocks() if b.key is not None}
