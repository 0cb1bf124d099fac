"""The buffer manager: the paper's "full-fledged buffer manager of
blocks, requiring the implementation of hash tables, free list and
dirty list".

In Python the hash table is a ``dict`` from key to block, and the dirty
list an insertion-ordered ``dict`` of blocks (first-dirtied order); the
free list (:class:`~repro.cache.freelist.FreeList`) is the one that
schedules, so it keeps its own class."""

from __future__ import annotations

import typing as _t

from repro.cache.block import (
    BlockKey,
    BlockState,
    CacheBlock,
    assign_run,
    unpin_run,
)
from repro.cache.clock import ClockPolicy, ExactLRUPolicy
from repro.cache.freelist import FreeList
from repro.cluster.config import CacheConfig
from repro.metrics import Metrics
from repro.sim import Environment, Event

#: The ``fresh`` of a :meth:`BufferManager.probe` that took no frame.
_NO_BLOCKS: tuple[CacheBlock, ...] = ()


class InvariantViolation(AssertionError):
    """The cache structures disagree about a block's state."""


class BufferManager:
    """Owns every cache frame of one node's cache module.

    Hot-path operations (``lookup``, ``probe``) are synchronous —
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
        #: The hash table: resident (hashed, not doomed) blocks by key.
        self.table: dict[BlockKey, CacheBlock] = {}
        self.freelist = FreeList(
            env,
            self.blocks,
            low_blocks=config.low_blocks,
            high_blocks=config.high_blocks,
        )
        #: The dirty list: DIRTY blocks in first-dirtied order, so a
        #: flush round writes the oldest dirty data first.
        self.dirtylist: dict[CacheBlock, None] = {}
        if config.replacement == "clock":
            self.policy: _t.Any = ClockPolicy()
        else:
            self.policy = ExactLRUPolicy()
        #: Keys being allocated -> the event rivals wait on, or None
        #: while no rival has shown up.
        self._inflight: dict[BlockKey, Event | None] = {}

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

    def probe(
        self, file_id: int, block_nos: _t.Sequence[int], i: int = 0
    ) -> tuple[_t.Sequence[CacheBlock], CacheBlock | None, bool]:
        """Every case of :meth:`get_or_allocate` that needs no wait, for
        the run of blocks ``block_nos[i:]`` of ``file_id``.

        Measures the run first — absent keys no rival has reserved, at
        most as many as the free list can give up in place — then takes
        that many frames in one booking and commits them as fresh
        PENDING blocks (DESIGN.md §14, "In-place turns" and "The miss
        path: runs and callback stages").  Returns ``(fresh, block,
        resident)``: ``fresh`` holds the new PENDING blocks of
        ``block_nos[i : i + len(fresh)]``, and ``(block, resident)`` is
        the probe result of the block that ended the run,
        ``block_nos[i + len(fresh)]``:

        * ``(block, True)`` for a resident block, PENDING or not
          (policy touched, as :meth:`lookup`);
        * ``(None, False)``, with nothing changed for that block, when
          the caller must drive :meth:`get_or_allocate`: a rival holds
          the key's reservation, the free list is dry or the take would
          signal the harvester, or it is not this process's turn — and
          when the run took every block up to the end of ``block_nos``.
        """
        table = self.table
        key = (file_id, block_nos[i])
        block = table.get(key)
        if block is not None:
            self.policy.touch(block)
            return _NO_BLOCKS, block, True
        inflight = self._inflight
        if key in inflight:
            return _NO_BLOCKS, None, False
        freelist = self.freelist
        cap = freelist.takeable
        if not cap:
            return _NO_BLOCKS, None, False
        # The run ends at the first resident key, reserved key or key
        # past ``cap`` frames: the block after the run is probed too.
        stop = min(len(block_nos), i + cap + 1)
        keys = [key]
        for k in range(i + 1, stop):
            key = (file_id, block_nos[k])
            block = table.get(key)
            if block is not None or key in inflight:
                break
            keys.append(key)
        if len(keys) > cap:
            del keys[cap:]
        fresh = freelist.take_run(len(keys))
        if fresh is None:
            return _NO_BLOCKS, None, False
        self._commit_run(fresh, keys)
        if block is not None:
            self.policy.touch(block)
        return fresh, block, block is not None

    def get_or_allocate(self, key: BlockKey) -> _t.Generator:
        """Process body: return ``(block, was_resident)``.

        The waiting counterpart of :meth:`probe`, one key at a time:
        misses allocate a fresh PENDING block, waiting on the free list
        if it is dry (the paper's blocking-for-cache-space).
        Concurrent misses on one key coalesce onto a single block.
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
            # Reached only from a fresh probe: waiting on a rival's
            # reservation loops back to re-probe (the `continue` above),
            # so this reservation never acts on a pre-wait lookup.
            self._inflight[key] = None
            try:
                block = yield from self.freelist.acquire()
            except BaseException:
                self._resolve_reservation(key, None)
                raise
            # The miss-probe of `table` happened before the freelist
            # wait, but a rival insert of this key is impossible: our
            # _inflight reservation (registered with no intervening
            # yield) makes rivals wait.
            self._commit(key, block)
            return block, False

    def _commit(self, key: BlockKey, block: CacheBlock) -> None:
        """Make the FREE ``block`` the PENDING frame of ``key``, handing
        the key's reservation over to it.

        It must stay atomic (no yields): a second requester probing
        between insert and the reservation hand-off would see
        half-committed state.
        """
        self._commit_run((block,), (key,))
        self._resolve_reservation(key, block)

    def _commit_run(
        self, frames: _t.Sequence[CacheBlock], keys: _t.Sequence[BlockKey]
    ) -> None:
        """Make each FREE frame the PENDING block of its key: assigned,
        hashed, then admitted to the policy, as one run.  Atomic (no
        yields), like every commit."""
        assign_run(frames, keys)
        table = self.table
        for frame in frames:
            key = frame.key
            if key in table:
                raise KeyError(f"duplicate insert for {key}")
            table[key] = frame
        self.policy.admit_run(frames)
        self.metrics.counters[self._k_allocations] += len(frames)

    def _resolve_reservation(
        self, key: BlockKey, block: CacheBlock | None
    ) -> None:
        """Drop ``key``'s reservation (if any), waking whoever waited."""
        reservation = self._inflight.pop(key, None)
        if reservation is not None:
            reservation.succeed(block)

    # -- dirty tracking ------------------------------------------------------------
    def note_write(self, block: CacheBlock) -> None:
        """Register a block the caller just dirtied; a block already on
        the dirty list keeps its first-dirtied place."""
        if block.state is not BlockState.DIRTY:
            raise ValueError(f"{block!r} is not dirty")
        self.dirtylist.setdefault(block, None)

    def note_cleaned(self, block: CacheBlock, epoch: int) -> bool:
        """Flusher callback: mark clean unless a write raced the flush."""
        if block.mark_clean(epoch):
            self.dirtylist.pop(block, None)
            return True
        return False

    def _unhash(self, blocks: _t.Sequence[CacheBlock]) -> None:
        """Take resident blocks out of the policy, the hash table
        (KeyError on one not in it) and the dirty list."""
        self.policy.forget_run(blocks)
        table = self.table
        dirtylist = self.dirtylist
        for block in blocks:
            key = block.key
            if table.get(key) is not block:
                raise KeyError(f"{key} not in table")
            del table[key]
            dirtylist.pop(block, None)

    # -- eviction --------------------------------------------------------------------
    def evict(
        self, blocks: _t.Sequence[CacheBlock], force: bool = False
    ) -> None:
        """Return a batch of resident blocks to the free list.

        Dirty blocks may only be evicted with ``force`` (used by
        coherence invalidations, where the remote sync_write wins);
        the harvester must flush them first instead.  Every block is
        checked before any is touched.  The policy forgets the batch
        in one pass; the frames then reach the free list in batch
        order, which decides which waiting allocator gets which frame.
        """
        for block in blocks:
            if block.state is BlockState.FREE:
                raise ValueError(f"evict of free block {block!r}")
            if block.pins:
                raise ValueError(f"evict of pinned block {block!r}")
            if block.writeback:
                raise ValueError(f"evict of block under write-back {block!r}")
            if block.state is BlockState.DIRTY and not force:
                raise ValueError(
                    f"evict of dirty block {block!r} without force"
                )
        # Eviction walks four structures; a yield between them would
        # leave a frame visible in none (or two) of them.  Forgetting,
        # unhashing and discarding schedule nothing; resetting and
        # releasing are fused block by block (FreeList.release_run).
        self._unhash(blocks)
        self.freelist.release_run(blocks)
        self.metrics.counters[self._k_evictions] += len(blocks)

    def invalidate(self, key: BlockKey) -> bool:
        """Coherence: drop ``key`` if resident (even dirty — the remote
        sync_write wins).  True when a copy was (or will be) dropped.

        A PENDING block is *doomed*: the iod snapshots the bytes for
        the in-flight fetch when the read *request* is handled, which
        can be before the racing sync_write lands there, so the data
        the fetch brings back may already be stale.  The fetch
        completes normally (its waiters still need an answer for this
        access).  A pinned block (mid-copy in some reader) is likewise
        doomed — a kernel cannot rip a page out from under an
        in-progress copy either — and so is a block under write-back,
        whose ack still has to find it.  A doomed block leaves the hash
        table, the policy and the dirty list at once, so no later
        access finds its bytes, and its frame is freed by
        :meth:`release_doomed` once it is READY, unpinned and unmarked
        (:meth:`release_if_unheld`).
        """
        block = self.table.get(key)
        if block is None:
            return False
        if block.pins or block.writeback or block.state is BlockState.PENDING:
            block.doomed = True
            self._unhash((block,))
            self.metrics.inc(self._k_deferred)
            return True
        self.evict((block,), force=True)
        self.metrics.inc(self._k_invalidated)
        return True

    def release_doomed(self, block: CacheBlock) -> None:
        """Free the frame of a doomed block nothing holds any more (a
        pinned writer may have put it back on the dirty list)."""
        self.dirtylist.pop(block, None)
        self.freelist.release_run((block,))
        counters = self.metrics.counters
        counters[self._k_evictions] += 1
        counters[self._k_invalidated] += 1

    def release_if_unheld(self, block: CacheBlock) -> None:
        """Free the doomed ``block`` once nothing holds it: no fetch in
        flight, no pin and no write-back mark."""
        if (
            not block.pins
            and not block.writeback
            and block.state is not BlockState.PENDING
        ):
            self.release_doomed(block)

    def end_writeback(self, block: CacheBlock) -> None:
        """Drop one hold of ``block``'s write-back mark (its write was
        acked), freeing it if it was doomed meanwhile."""
        block.writeback -= 1
        if block.doomed:
            self.release_if_unheld(block)

    def unpin_run(self, blocks: _t.Sequence[CacheBlock]) -> None:
        """Release one pin of each block, then free each doomed block
        that nothing holds any more, in run order.  Unpinning
        schedules nothing, so this is the order unpinning and freeing
        block by block would give."""
        unpin_run(blocks)
        for block in blocks:
            if block.doomed:
                self.release_if_unheld(block)

    def select_victims(self, n: int) -> list[CacheBlock]:
        """Policy passthrough (clean blocks before dirty ones)."""
        return self.policy.select_victims(n)

    # -- the invariant -------------------------------------------------------------
    def _fail(self, message: str) -> _t.NoReturn:
        raise InvariantViolation(
            f"[{self.name} @ t={self.env.now:.9f}] {message}"
        )

    def check_invariants(self) -> None:
        """Validate the global block-accounting invariant once.

        Stated against the paper's structures:

        * every frame is in exactly one of the *free*, *hashed* and
          *doomed* states (FREE frames carry no identity and never sit
          in the hash table; PENDING/CLEAN/DIRTY frames are keyed and
          in the table once, under their own key, unless doomed, and
          doomed frames are in it nowhere);
        * a hashed frame is DIRTY if and only if it is on the dirty
          list;
        * pin counts ("refcounts" held by in-progress copies) are never
          negative, FREE frames are never pinned, and a doomed block
          does not outlive its last unpin;
        * write-back marks are never negative, a marked frame is never
          FREE (so a doomed block is not freed while its mark is held),
          a flush batch's hold is one of the mark's holders, and a
          doomed block does not outlive its mark's last holder either;
        * the clock hand stays inside the ring, and the replacement
          policy tracks exactly the resident frames;
        * in-flight allocation reservations resolve: a reserved key is
          not yet resident and its reservation event has not fired;
        * free-list accounting never exceeds the number of FREE frames.

        Raises :class:`InvariantViolation` naming the node and the
        simulated time.  Tests call it from a step hook
        (``tests/conftest.py``'s ``check_invariants_every``).
        """
        table = self.table
        resident: dict[int, CacheBlock] = {}
        for key, block in table.items():
            # A block under two keys is under a wrong one for one of them.
            resident[id(block)] = block
            if block.key != key:
                self._fail(f"{block!r} is in the hash table under {key}")
            if block.state is BlockState.FREE:
                self._fail(f"FREE block {block!r} is in the hash table")
            if block.doomed:
                self._fail(f"doomed block {block!r} is in the hash table")

        freelist = self.freelist
        store_items = list(freelist._store._items)
        store_ids = {id(b) for b in store_items}
        if len(store_ids) != len(store_items):
            self._fail("free list stores the same block twice")
        n_free_state = 0
        n_doomed = 0
        for block in self.blocks:
            if block.pins < 0:
                self._fail(f"negative pin count on {block!r}")
            if block.writeback < 0:
                self._fail(f"negative write-back mark on {block!r}")
            if block.flushing and not block.writeback:
                self._fail(f"{block!r} is in a flush batch but unmarked")
            in_table = id(block) in resident
            if block.state is BlockState.FREE:
                n_free_state += 1
                if in_table:
                    self._fail(f"FREE block {block!r} is also resident")
                if block.pins:
                    self._fail(f"FREE block {block!r} is pinned")
                if block.writeback:
                    self._fail(f"FREE block {block!r} is under write-back")
                if block.key is not None:
                    self._fail(f"FREE block {block!r} still has a key")
            else:
                if block.doomed:
                    n_doomed += 1
                elif not in_table:
                    self._fail(
                        f"{block.state.value} block {block!r} is not in "
                        "the hash table"
                    )
                if id(block) in store_ids:
                    self._fail(
                        f"resident block {block!r} is also on the free list"
                    )
            is_dirty = block.state is BlockState.DIRTY
            on_dirty = block in self.dirtylist
            if is_dirty and not on_dirty and not block.doomed:
                self._fail(f"DIRTY block {block!r} is not on the dirty list")
            if on_dirty and not is_dirty:
                self._fail(
                    f"{block.state.value} block {block!r} is on the "
                    "dirty list"
                )
            if (
                block.doomed
                and block.pins == 0
                and block.writeback == 0
                and block.state is not BlockState.PENDING
            ):
                # PENDING is exempt: a coherence invalidation that
                # races an in-flight fetch dooms the block and lets
                # the fetch finish; the drop happens at ready_run
                # (unpinned prefetches), at the last unpin or at the
                # last write-back ack.
                self._fail(
                    f"doomed block {block!r} survived its last unpin "
                    "or write-back ack"
                )
        if n_free_state + len(resident) + n_doomed != len(self.blocks):
            self._fail(
                f"frames leak: {n_free_state} free + {len(resident)} "
                f"resident + {n_doomed} doomed != {len(self.blocks)} total"
            )
        if len(store_items) > n_free_state:
            self._fail(
                f"free list holds {len(store_items)} blocks but only "
                f"{n_free_state} frames are FREE"
            )
        if max(0, freelist._count) > n_free_state:
            self._fail(
                f"free list count {freelist._count} exceeds FREE frames "
                f"{n_free_state}"
            )

        self._check_policy(resident)

        for key, reservation in self._inflight.items():
            if table.get(key) is not None:
                self._fail(
                    f"in-flight reservation for {key} but the key is "
                    "already resident"
                )
            # ``None``: no rival has asked to wait yet (the first
            # waiter materialises the event).
            if reservation is not None and reservation.triggered:
                self._fail(
                    f"in-flight reservation for {key} already fired but "
                    "was not removed"
                )

    def _check_policy(self, resident: dict[int, CacheBlock]) -> None:
        policy = self.policy
        ring = getattr(policy, "_ring", None)
        if ring is not None:  # ClockPolicy
            hand = policy._hand
            if ring:
                if not 0 <= hand < len(ring):
                    self._fail(
                        f"clock hand {hand} outside ring of {len(ring)}"
                    )
            elif hand != 0:
                self._fail(f"clock hand {hand} nonzero on an empty ring")
            tracked = {id(b) for b in ring}
            if len(tracked) != len(ring):
                self._fail("clock ring tracks a block twice")
        else:  # ExactLRUPolicy
            tracked = {id(b) for b in policy._order}
        if tracked != set(resident):
            missing = len(set(resident) - tracked)
            extra = len(tracked - set(resident))
            self._fail(
                "replacement policy out of sync with the hash table "
                f"({missing} resident untracked, {extra} stale entries)"
            )
