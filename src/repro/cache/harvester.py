"""The harvester kernel thread: eviction ahead of demand.

The paper: "we have a harvester thread that becomes active whenever
the number of blocks in the free list falls below a certain threshold.
This thread frees up blocks till the free list size reaches a high
water mark."
"""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockState
from repro.cache.flusher import Flusher
from repro.cache.manager import BufferManager
from repro.metrics import Metrics
from repro.sim import Environment
from repro.svc import Service


class Harvester(Service):
    """Refills the free list between the low and high watermarks.

    The wake signal is a bare simulation event rather than a queued
    message: ``wake()`` must be callable from synchronous code
    (the free list's low-watermark hook) without scheduling anything
    when the thread is already awake.
    """

    #: Fallback poll interval when no wake signal is expected (e.g.
    #: every evictable block is pinned by in-progress copies).
    FALLBACK_DELAY_S = 2e-3

    def __init__(
        self,
        env: Environment,
        manager: BufferManager,
        flusher: Flusher,
        metrics: Metrics,
    ) -> None:
        super().__init__(
            env, f"harvester-{flusher.node.name}", node=flusher.node
        )
        self.manager = manager
        self.flusher = flusher
        self.metrics = metrics
        self._wake = env.event()
        # Hook the free list's low-watermark signal.
        manager.freelist.on_low = self.wake

    def _on_start(self) -> None:
        self.spawn(self._loop(), name=self.name)

    def wake(self) -> None:
        """Poke the thread (cheap; callable from synchronous code)."""
        if not self._wake.triggered:
            self._wake.succeed()

    def _rearm(self) -> None:
        if self._wake.triggered:
            self._wake = self.env.event()

    def _loop(self) -> _t.Generator:
        # Hysteresis, exactly as the paper describes: the thread
        # "becomes active whenever the number of blocks in the free
        # list falls below a certain threshold [and] frees up blocks
        # till the free list size reaches a high water mark".
        active = False
        while True:
            if not active:
                if not self.manager.freelist.below_low:
                    yield self._wake
                    self._rearm()
                    continue
                active = True
                self.metrics.inc("harvester.activations")
            if not self.manager.freelist.below_high:
                active = False
                continue
            progress = yield from self._harvest_some()
            if progress == 0:
                # Nothing evictable and nothing newly flushable right
                # now: sleep until a flush batch cleans blocks (the
                # flusher's on_clean hook pokes us) or, as a fallback,
                # a short poll in case everything was merely pinned.
                yield self.env.any_of(
                    [self._wake, self.env.timeout(self.FALLBACK_DELAY_S)]
                )
                self._rearm()

    def _harvest_some(self) -> _t.Generator:
        """One pass: evict clean victims, start flushes for dirty ones.

        Dirty victims are handed to the flusher without waiting for
        acks (they take the write-back mark at once, and a marked
        victim is skipped, so no pass double-ships); they get evicted
        on a later pass once the flusher's on_clean hook re-arms us.
        Returns a progress score (evictions + newly initiated flushes).
        """
        shortfall = self.manager.config.high_blocks - len(self.manager.freelist)
        if shortfall <= 0:
            return 0
        victims = self.manager.select_victims(shortfall)
        dirty_victims = [
            b for b in victims if b.state is BlockState.DIRTY and not b.writeback
        ]
        if dirty_victims:
            # Clean-preferred policy may still surface dirty victims
            # when nothing clean remains: flush, then free later.
            yield from self.flusher.initiate_flush(dirty_victims)
            self.metrics.inc("harvester.dirty_flushes", len(dirty_victims))
        # Evicting one victim cannot change another synchronously, so
        # filtering first and evicting the batch in victim order is
        # the same as checking each victim just before evicting it.
        # A CLEAN block can still be marked: a later sync_write of it
        # is acked first while an earlier one, which spans more iods,
        # still waits for another iod's ack.
        clean = [
            b
            for b in victims
            if b.state is BlockState.CLEAN and b.pins == 0 and not b.writeback
        ]
        if clean:
            self.manager.evict(clean)
        freed = len(clean)
        self.metrics.inc("harvester.freed", freed)
        if freed:
            self._emit("eviction", freed=freed)
        return freed + len(dirty_victims)
