"""Replacement policies: the paper's clock (approximate LRU) and an
exact-LRU alternative used for ablation.

The paper: "We use an approximate LRU replacement algorithm to free up
the blocks (since exact LRU can result in a significant overhead at
each read/write invocation), and preference for replacement is given
to clean blocks over dirty ones."
"""

from __future__ import annotations

import typing as _t
from itertools import filterfalse

from repro.cache.block import BlockState, CacheBlock


class ReplacementPolicy:
    """Interface: pick eviction victims among resident blocks."""

    def touch(self, block: CacheBlock) -> None:  # pragma: no cover
        """Record a reference to a resident block."""
        raise NotImplementedError

    def admit_run(
        self, blocks: _t.Sequence[CacheBlock]
    ) -> None:  # pragma: no cover
        """Start tracking a run of newly resident blocks, in order."""
        raise NotImplementedError

    def forget_run(
        self, blocks: _t.Iterable[CacheBlock]
    ) -> None:  # pragma: no cover
        """Drop a batch of blocks from the policy's tracking (blocks
        it does not track are ignored)."""
        raise NotImplementedError

    def select_victims(self, n: int) -> list[CacheBlock]:  # pragma: no cover
        """Pick up to ``n`` eviction victims, clean blocks before dirty
        ones (the paper's policy)."""
        raise NotImplementedError


class ClockPolicy(ReplacementPolicy):
    """Second-chance clock sweep over the resident blocks.

    ``touch`` costs O(1) (set the reference bit) — the cheapness on
    the hot path is the whole point versus exact LRU.
    """

    def __init__(self) -> None:
        self._ring: list[CacheBlock] = []
        self._hand = 0
        #: Bumped per sweep; blocks stamped with the current generation
        #: have already been picked (victim or dirty fallback).
        self._sweep_gen = 0

    def touch(self, block: CacheBlock) -> None:
        """Set the reference bit (O(1) hot path; ring membership is
        managed by admit_run()/forget_run(), called once per residency)."""
        block.refbit = True

    def admit_run(self, blocks: _t.Sequence[CacheBlock]) -> None:
        """Register a run of newly resident blocks, in order."""
        self._ring += blocks
        for block in blocks:
            block.refbit = True

    def forget_run(self, blocks: _t.Iterable[CacheBlock]) -> None:
        """Remove a batch of blocks from the ring in one pass.

        The hand ends where removing them one at a time would leave it:
        a removal before the hand shifts it down, and removing the
        block under the hand passes it to that block's successor
        (wrapping to the ring's head).  So it comes to rest on the
        first survivor at or after its old block, cyclically — index
        ``len(head)``, or 0 when nothing survives from the hand on.
        """
        ring = self._ring
        hand = self._hand
        gone = set(blocks).__contains__
        head = list(filterfalse(gone, ring[:hand]))
        tail = list(filterfalse(gone, ring[hand:]))
        self._hand = len(head) if tail else 0
        head += tail
        self._ring = head

    def select_victims(self, n: int) -> list[CacheBlock]:
        """Sweep the ring, giving referenced blocks a second chance.

        Dirty blocks get an extra pass of grace: they are only chosen
        once no clean candidate remains.
        """
        if n <= 0 or not self._ring:
            return []
        victims: list[CacheBlock] = []
        dirty_fallback: list[CacheBlock] = []
        # Two full sweeps: the first clears reference bits, the second
        # collects whatever is evictable.  If a whole revolution makes
        # no progress at all (everything pinned / pending / already in
        # flight), stop early — a longer sweep cannot help.
        #
        # This loop dominates harvester cost on cache-pressure
        # workloads, so it iterates a hand-rotated list copy (C-speed
        # iteration, no per-step index/wrap arithmetic) on local
        # variables.  Instead of id() sets, already-picked blocks carry
        # the sweep generation in their ``sweep_mark`` — nothing can
        # touch a block mid-sweep (the sweep is synchronous), so victim
        # and fallback sets are disjoint and one stamp covers both.
        # The fallback list only ever yields its first ``n`` entries,
        # so appends stop there; later dirty candidates still get
        # marked and counted as revolution progress, exactly as if they
        # had been collected.
        self._sweep_gen += 1
        gen = self._sweep_gen
        ring = self._ring
        hand = self._hand
        ring_len = len(ring)
        rotated = ring[hand:] + ring[:hand]
        processed = 0
        n_picked = 0
        n_fallback = 0
        clean = BlockState.CLEAN
        dirty = BlockState.DIRTY
        pick_append = victims.append
        fallback_append = dirty_fallback.append
        filled = False
        for _revolution in (0, 1):
            useful_in_revolution = 0
            for block in rotated:
                processed += 1
                state = block.state
                if block.pins or (state is not clean and state is not dirty):
                    continue
                if block.refbit:
                    block.refbit = False  # second chance
                    useful_in_revolution += 1
                    continue
                if block.sweep_mark == gen:
                    continue
                block.sweep_mark = gen
                if state is dirty:
                    useful_in_revolution += 1
                    n_fallback += 1
                    if n_fallback <= n:
                        fallback_append(block)
                    continue
                pick_append(block)
                n_picked += 1
                useful_in_revolution += 1
                if n_picked >= n:
                    filled = True
                    break
            if filled or useful_in_revolution == 0:
                break
        self._hand = (hand + processed) % ring_len
        # Every fallback block was unpinned CLEAN/DIRTY when marked and
        # the sweep is synchronous, so all of them are still evictable.
        for block in dirty_fallback:
            if n_picked >= n:
                break
            victims.append(block)
            n_picked += 1
        return victims

    def __len__(self) -> int:
        return len(self._ring)


class ExactLRUPolicy(ReplacementPolicy):
    """True LRU ordering (ablation baseline).

    ``touch`` is O(1) amortised via dict move-to-end, but the point of
    the ablation is hit-path *cost modelling*, handled by the manager
    charging a higher touch cost when this policy is configured.
    """

    def __init__(self) -> None:
        self._order: dict[CacheBlock, None] = {}

    def touch(self, block: CacheBlock) -> None:
        """Move the block to most-recently-used."""
        self._order.pop(block, None)
        self._order[block] = None

    def admit_run(self, blocks: _t.Sequence[CacheBlock]) -> None:
        """Register a run of newly resident blocks, oldest first."""
        order = self._order
        for block in blocks:
            order.pop(block, None)
            order[block] = None

    def forget_run(self, blocks: _t.Iterable[CacheBlock]) -> None:
        """Drop a batch of blocks from the recency order."""
        pop = self._order.pop
        for block in blocks:
            pop(block, None)

    def select_victims(self, n: int) -> list[CacheBlock]:
        """Oldest-first victims, clean preferred."""
        victims: list[CacheBlock] = []
        dirty_fallback: list[CacheBlock] = []
        for block in self._order:  # oldest first
            if len(victims) >= n:
                break
            if not block.is_evictable:
                continue
            if block.state is BlockState.DIRTY:
                dirty_fallback.append(block)
                continue
            victims.append(block)
        for block in dirty_fallback:
            if len(victims) >= n:
                break
            victims.append(block)
        return victims

    def __len__(self) -> int:
        return len(self._order)
