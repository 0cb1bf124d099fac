"""The flusher kernel thread (client side of write-behind).

The paper: "On a write, cache blocks are not immediately propagated to
the server (the write is performed on the cache and control is
returned back to libpvfs).  The blocks are marked dirty (kept in a
dirty list), and this list is flushed periodically to the iod nodes.
A server version of this flusher thread runs on the iod nodes, which
listens on a separate socket for the flushes."
"""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockState, CacheBlock
from repro.cache.manager import BufferManager
from repro.cluster.node import Node
from repro.metrics import Metrics
from repro.net import Message
from repro.pvfs import protocol
from repro.pvfs.protocol import FlushBatch, FlushEntry
from repro.pvfs.striping import StripeLayout
from repro.sim import Event
from repro.sim.events import NamedEvent, call_soon
from repro.svc import Service
from repro.svc.rpc import Call


class Flusher(Service):
    """Periodically ships dirty blocks to the iods' flush ports.

    Drain semantics (the :class:`~repro.svc.Service` lifecycle): a
    ``drain()`` flushes until the dirty list is empty, so tearing a
    node down afterwards loses nothing; a bare ``stop()`` reports the
    still-dirty block count as dropped work.
    """

    def __init__(
        self,
        node: Node,
        manager: BufferManager,
        layout: StripeLayout,
        iod_nodes: _t.Sequence[str],
        metrics: Metrics,
        period_s: float,
        flush_port: int = 7001,
    ) -> None:
        super().__init__(node.env, f"flusher-{node.name}", node=node)
        self.manager = manager
        self.layout = layout
        self.iod_nodes = tuple(iod_nodes)
        self.metrics = metrics
        self.period_s = period_s
        self.flush_port = flush_port
        self._flush_pool = self.pool(flush_port, label=self.name)
        #: Hook: called whenever blocks become clean (the harvester
        #: wires its wake() here so evictions pipeline with flushing).
        self.on_clean: _t.Callable[[], None] | None = None

    def _on_start(self) -> None:
        self.spawn(self._loop(), name=self.name)

    def _loop(self) -> _t.Generator:
        while True:
            # Under write pressure (more dirty blocks than the
            # harvester's refill target) flush back-to-back; otherwise
            # wake at the configured period.
            if self.manager.n_dirty <= self.manager.config.high_blocks:
                yield self.env.timeout(self.period_s)
            shipped = yield from self.flush_round()
            if shipped == 0 and self.manager.n_dirty:
                # Everything dirty is already on the wire (e.g. a
                # harvester-initiated flush): give those batches time
                # to ack instead of spinning.
                yield self.env.timeout(self.period_s / 16)

    def flush_round(self) -> _t.Generator:
        """One write-back pass over the current dirty list.  Returns
        how many blocks were actually cleaned."""
        blocks = list(self.manager.dirtylist)
        if not blocks:
            return 0
        cleaned = yield from self.flush_blocks(blocks)
        return cleaned

    def flush_blocks(self, blocks: _t.Sequence[CacheBlock]) -> _t.Generator:
        """Ship the dirty fragments of ``blocks``; mark clean on ack.

        Returns once every batch is acked (blocks become evictable
        earlier, as their own iod acks).
        """
        waiters = yield from self.initiate_flush(blocks)
        if not waiters:
            return 0
        results = yield self.env.all_of(waiters)
        cleaned = sum(results.values())
        self.metrics.inc("flusher.blocks_cleaned", cleaned)
        return cleaned

    def initiate_flush(
        self, blocks: _t.Sequence[CacheBlock]
    ) -> _t.Generator:
        """Ship batches without waiting for acks.

        Each shipped block takes the write-back mark (and
        ``flushing``) *before* any yield, and a marked block is
        skipped, whoever holds its mark: a caller initiating again
        right after (the harvester's loop) never double-ships, and
        neither does a round that comes due while a cached
        ``sync_write`` writes the block through.  One batch per iod,
        acknowledged independently: blocks become clean (and
        evictable) as soon as *their* iod acks, so eviction pipelines
        with the rest of the flush instead of waiting for the slowest
        server.  Returns the per-batch ack stages (:class:`_FlushAck`).
        """
        per_iod_frags: dict[str, list[tuple[int, int, int, bytes | None]]] = {}
        per_iod_caps: dict[str, list[tuple[CacheBlock, int]]] = {}
        # Snapshot-and-mark must not be interleaved: a yield in this
        # loop would let a racing write (or the harvester) change the
        # dirty set between the epoch capture and the mark,
        # double-shipping or losing a block.
        for block in blocks:
            if (
                block.state is not BlockState.DIRTY
                or block.key is None
                or block.writeback
            ):
                continue
            file_id, block_no = block.key
            base = block_no * block.block_size
            iod_node = self.iod_nodes[self.layout.iod_index(base)]
            frags = per_iod_frags.setdefault(iod_node, [])
            for start, end in block.dirty.intervals:
                frags.append(
                    (
                        file_id,
                        base + start,
                        end - start,
                        block.read_slice(start, end),
                    )
                )
            per_iod_caps.setdefault(iod_node, []).append(
                (block, block.dirty_epoch)
            )
            block.writeback += 1
            block.flushing = True
        if not per_iod_frags:
            return []
        counters = self.metrics.counters
        pool = self._flush_pool
        waiters = []
        for iod_node in sorted(per_iod_frags):
            entries = self._coalesce(per_iod_frags[iod_node])
            channel = pool.connected(iod_node)
            if channel is None:
                channel = yield from pool.channel(iod_node)
            batch = FlushBatch(entries=entries)
            call = channel.call(
                Message(
                    kind=protocol.FLUSH,
                    size_bytes=batch.wire_size(),
                    payload=batch,
                )
            )
            nbytes = batch.total_bytes
            counters["flusher.batches"] += 1
            counters["flusher.bytes"] += nbytes
            self._emit(
                "flush_batch",
                iod=iod_node,
                entries=len(entries),
                bytes=nbytes,
            )
            waiters.append(
                _FlushAck(
                    self, call, per_iod_caps[iod_node],
                    f"flush-ack-{self.node.name}-{iod_node}",
                )
            )
        return waiters

    def _coalesce(
        self, fragments: list[tuple[int, int, int, bytes | None]]
    ) -> list[FlushEntry]:
        """Merge adjacent dirty fragments into long ranges (sequential
        writes dirty long runs of blocks; shipping them as single
        ranges keeps both the wire and the iods' writeback efficient).
        """
        if len(fragments) > 1:
            fragments = sorted(fragments, key=lambda f: (f[0], f[1]))
        # Payloads accumulate as chunk lists and are joined once per
        # entry: concatenating bytes in place would recopy the merged
        # prefix on every fragment (quadratic in run length).
        merged: list[list] = []  # [file_id, off, n, list[bytes] | None]
        for file_id, off, n, data in fragments:
            if (
                merged
                and merged[-1][0] == file_id
                and merged[-1][1] + merged[-1][2] == off
                and (merged[-1][3] is None) == (data is None)
            ):
                merged[-1][2] += n
                if data is not None:
                    merged[-1][3].append(data)
            else:
                merged.append(
                    [file_id, off, n, None if data is None else [data]]
                )
        return [
            FlushEntry(
                file_id=f,
                offset=o,
                nbytes=n,
                data=None if parts is None else b"".join(parts),
            )
            for f, o, n, parts in merged
        ]

    def _drain(self) -> _t.Generator:
        """Flush until nothing is dirty (tests / orderly shutdown)."""
        while self.manager.n_dirty:
            cleaned = yield from self.flush_round()
            if cleaned == 0:
                # Batches already in flight (or raced writes): let
                # their acks land before probing again.
                yield self.env.timeout(self.period_s / 16)

    def _dropped(self) -> dict[str, int]:
        return {"dirty_blocks": self.manager.n_dirty}


class _FlushAck(NamedEvent):
    """One flush batch's ack, as a callback stage.

    Schedules what the process that waited for the ack scheduled, under
    its name (``flush-ack-<node>-<iod>``): an urgent start event, then
    the response ``StoreGet``.  On the ack it marks the batch's blocks
    clean and drops their write-back marks, wakes a ``sync_write``
    waiting on any of them, calls ``on_clean``, and then fires itself
    with the number of blocks cleaned, as the process returned it.  A
    response of any other kind fails it with :class:`ValueError`, as it
    failed the process.
    """

    __slots__ = ("flusher", "call", "captured", "name")

    def __init__(
        self,
        flusher: Flusher,
        call: Call,
        captured: list[tuple[CacheBlock, int]],
        name: str,
    ) -> None:
        super().__init__(flusher.env)
        self.flusher = flusher
        self.call = call
        self.captured = captured
        self.name = name
        call_soon(self.env, self._start)

    def _start(self, _event: Event) -> None:
        self.call.response().callbacks.append(  # type: ignore[union-attr]
            self._acked
        )

    def _acked(self, event: Event) -> None:
        ack = event._value
        if ack.kind != protocol.FLUSH_ACK:
            self.fail(ValueError(f"expected flush ack, got {ack.kind!r}"))
            return
        self.call.close()
        flusher = self.flusher
        manager = flusher.manager
        note_cleaned = manager.note_cleaned
        end_writeback = manager.end_writeback
        cleaned = 0
        for block, epoch in self.captured:
            block.flushing = False
            if note_cleaned(block, epoch):
                cleaned += 1
            # Only a sync_write that waited made this event.
            event, block.flushed_event = block.flushed_event, None
            if event is not None:
                event.succeed()
            end_writeback(block)
        if cleaned and flusher.on_clean is not None:
            flusher.on_clean()
        self.succeed(cleaned)
