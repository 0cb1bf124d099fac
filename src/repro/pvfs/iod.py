"""The PVFS I/O daemon (``iod``).

One per storage node.  Serves striped file data from the local disk
stack, answers flush batches from client-side flusher threads on a
separate port (the paper: "a server version of this flusher thread
runs on the iod nodes, which listens on a separate socket"), and keeps
the *directory* of caching nodes used by ``sync_write`` invalidations.
"""

from __future__ import annotations

import typing as _t
from itertools import chain

from repro.cluster.node import Node
from repro.disk.filesystem import blocks_spanned
from repro.disk.writeback import WritebackItem
from repro.metrics import Metrics
from repro.net import Message
from repro.pvfs import protocol
from repro.pvfs.directory import SharerDirectory
from repro.pvfs.protocol import (
    FlushBatch,
    InvalidateRequest,
    ReadData,
    ReadRequest,
    WriteRequest,
)
from repro.pvfs.striping import StripeLayout
from repro.svc import Service, handles


class Iod(Service):
    """One I/O daemon bound to a storage node."""

    def __init__(
        self,
        node: Node,
        layout: StripeLayout,
        iod_index: int,
        metrics: Metrics,
        port: int = 7000,
        flush_port: int = 7001,
        invalidate_port: int = 7002,
        mgr_shards: int = 1,
    ) -> None:
        if node.disk is None or node.filestore is None or node.pagecache is None:
            raise ValueError(f"{node.name} has no disk stack for an iod")
        super().__init__(node.env, f"iod-{node.name}", node=node)
        self.layout = layout
        self.iod_index = iod_index
        self.metrics = metrics
        self.port = port
        self.flush_port = flush_port
        self.invalidate_port = invalidate_port
        self.request_cpu_s = node.costs.iod_request_cpu_s
        self.mgr_shards = mgr_shards
        #: Which client nodes' cache modules may hold a copy of which
        #: blocks.  Keyed by file id, so the partition by owning mgr
        #: shard (DESIGN.md §17) is implicit.
        self.directory = SharerDirectory()
        self._invalidate_pool = self.pool(
            invalidate_port, label=f"{self.name}-inval"
        )
        self.block_size = node.filestore.block_size

    def stats(self) -> dict[str, _t.Any]:
        """Point-in-time snapshot of this iod's bookkeeping state."""
        pagecache = self.node.pagecache
        assert pagecache is not None
        return {
            "node": self.node.name,
            **self.directory.stats(),
            "pagecache_blocks": len(pagecache),
            "pagecache_capacity": pagecache.capacity_blocks,
        }

    def _on_start(self) -> None:
        self.serve(self.port, label="data")
        self.serve(self.flush_port, label="flush")

    # -- local geometry ------------------------------------------------------
    def local_offset(self, logical_offset: int) -> int:
        """Map a logical file offset to this iod's local stripe file."""
        return self.layout.local_offset(logical_offset)

    # -- request handlers --------------------------------------------------
    @handles(protocol.IOD_READ)
    def _handle_read(self, msg: Message, endpoint) -> _t.Generator:
        req: ReadRequest = msg.payload
        # Acknowledge the request before moving data (PVFS protocol:
        # libpvfs waits for an ack, then the data stream).
        yield endpoint.send(
            msg.reply(protocol.IOD_READ_ACK, protocol.ACK_BYTES)
        )
        yield from self._ensure_resident(req.file_id, req.ranges)
        if req.from_cache and req.requester_node:
            for off, n in req.ranges:
                spanned = blocks_spanned(off, n, self.block_size)
                self.directory.note(
                    req.file_id, spanned.start, spanned.stop, req.requester_node
                )
        chunks = [
            self._read_range(req.file_id, off, n) if req.want_data else None
            for off, n in req.ranges
        ]
        data = ReadData(file_id=req.file_id, ranges=list(req.ranges), chunks=chunks)
        counters = self.metrics.counters
        counters["iod.reads"] += 1
        if len(req.ranges) > 1:
            counters["iod.list_requests"] += 1
        counters["iod.read_bytes"] += req.total_bytes
        yield endpoint.send(
            msg.reply(protocol.IOD_DATA, data.total_bytes, payload=data)
        )

    @handles(protocol.IOD_WRITE, protocol.IOD_SYNC_WRITE)
    def _handle_write(self, msg: Message, endpoint) -> _t.Generator:
        """A buffered write; a ``sync_write`` also invalidates every
        other cache holding a written block before it is acked."""
        req: WriteRequest = msg.payload
        sync = msg.kind == protocol.IOD_SYNC_WRITE
        yield from self._write_ranges(req.file_id, req.ranges, req.chunks)
        if sync:
            yield from self._invalidate_sharers(req)
        self.metrics.inc("iod.sync_writes" if sync else "iod.writes")
        if len(req.ranges) > 1:
            self.metrics.inc("iod.list_requests")
        self.metrics.inc("iod.write_bytes", req.total_bytes)
        yield endpoint.send(
            msg.reply(
                protocol.IOD_SYNC_ACK if sync else protocol.IOD_WRITE_ACK,
                protocol.ACK_BYTES,
            )
        )

    @handles(protocol.FLUSH)
    def _handle_flush(self, msg: Message, endpoint) -> _t.Generator:
        batch: FlushBatch = msg.payload
        for entry in batch.entries:
            yield from self._write_ranges(
                entry.file_id,
                [(entry.offset, entry.nbytes)],
                [entry.data],
            )
            # The flushing cache still holds what it shipped.
            spanned = blocks_spanned(entry.offset, entry.nbytes, self.block_size)
            self.directory.note(
                entry.file_id, spanned.start, spanned.stop, msg.src
            )
        nbytes = batch.total_bytes
        counters = self.metrics.counters
        counters["iod.flush_batches"] += 1
        counters["iod.flushed_bytes"] += nbytes
        self._emit("flush_batch", entries=len(batch.entries), bytes=nbytes)
        yield endpoint.send(
            msg.reply(protocol.FLUSH_ACK, protocol.ACK_BYTES)
        )

    # -- storage paths ---------------------------------------------------------
    def _ensure_resident(
        self, file_id: int, ranges: _t.Sequence[protocol.Range]
    ) -> _t.Generator:
        """Bring every block covering ``ranges`` into the page cache,
        reading coalesced runs of missing blocks from disk.

        One :meth:`PageCache.lookup_many` pass probes the whole
        request, range by range (no per-block list is built), and hands
        back coalesced missing-block runs; one
        :meth:`DiskModel.io_batch` call services them.  Runs become
        resident as they land (``on_run_complete``), so concurrent
        requests observe the same residency evolution as the old
        per-run loop did.
        """
        pagecache = self.node.pagecache
        disk = self.node.disk
        assert pagecache is not None and disk is not None
        block_size = self.block_size
        spans = [blocks_spanned(off, n, block_size) for off, n in ranges]
        hits, runs = pagecache.lookup_many(file_id, chain.from_iterable(spans))
        misses = sum(map(len, spans)) - hits
        counters = self.metrics.counters
        if hits:
            counters["iod.pagecache_hits"] += hits
        if misses:
            counters["iod.pagecache_misses"] += misses
        if not runs:
            return
        yield from disk.io_batch(
            file_id,
            [
                (self.local_offset(first * block_size), count * block_size)
                for first, count in runs
            ],
            write=False,
            on_run_complete=lambda i: pagecache.insert_many(
                file_id, runs[i][0], runs[i][1]
            ),
        )

    def _read_range(self, file_id: int, offset: int, nbytes: int) -> bytes:
        """Assemble real bytes for one logical range from the store."""
        store = self.node.filestore
        assert store is not None
        return store.read_range(file_id, offset, nbytes)

    def _write_ranges(
        self,
        file_id: int,
        ranges: _t.Sequence[protocol.Range],
        chunks: _t.Sequence[bytes | None],
    ) -> _t.Generator:
        """Buffered write: patch the store, warm the page cache, and
        hand the bytes to the background writeback daemon.

        Like a real iod's ``write()`` call, the ack does not wait for
        the platter — the OS page cache absorbs the write and pdflush
        (our :class:`~repro.disk.writeback.WritebackDaemon`) drains it,
        throttling us only when dirty memory piles up.
        """
        store = self.node.filestore
        pagecache = self.node.pagecache
        assert store is not None and pagecache is not None and self.node.disk
        for (offset, nbytes), data in zip(ranges, chunks):
            if nbytes == 0:
                continue
            store.write_range(file_id, offset, nbytes, data)
            spanned = blocks_spanned(offset, nbytes, self.block_size)
            pagecache.insert_many(file_id, spanned.start, len(spanned))
            assert self.node.writeback is not None
            yield from self.node.writeback.submit(
                WritebackItem(
                    file_id=file_id,
                    local_offset=self.local_offset(offset),
                    nbytes=nbytes,
                )
            )

    # -- sync_write invalidations ---------------------------------------------
    def _invalidate_sharers(self, req: WriteRequest) -> _t.Generator:
        """Invalidate every cache holding a written block, except the
        writer's own node when the write went through its cache (which
        the write itself updated).  A raw write passed that cache by,
        so the writer's node is invalidated like any other."""
        writer = req.requester_node if req.from_cache else None
        # First-seen order over (range, block ascending, sharer name):
        # the order nodes enter ``victims`` is the order their channels
        # are set up and their invalidations hit the wire.
        victims: dict[str, list[int]] = {}
        for off, n in req.ranges:
            spanned = blocks_spanned(off, n, self.block_size)
            held = self.directory.invalidate(
                req.file_id, spanned.start, spanned.stop, writer
            )
            if req.from_cache:
                # ... and the writer's cache now holds the new bytes.
                self.directory.note(
                    req.file_id, spanned.start, spanned.stop, req.requester_node
                )
            for node_name, blocks in held.items():
                victims.setdefault(node_name, []).extend(blocks)
        mgr_shard = protocol.owning_mgr_shard(req.file_id, self.mgr_shards)
        pending = []
        for node_name, blocks in victims.items():
            channel = yield from self._invalidate_pool.channel(node_name)
            inval = InvalidateRequest(file_id=req.file_id, block_nos=blocks)
            call = channel.call(
                Message(
                    kind=protocol.INVALIDATE,
                    size_bytes=inval.wire_size(),
                    payload=inval,
                )
            )
            pending.append(call)
            self.metrics.inc("iod.invalidations_sent", len(blocks))
            self._emit(
                "invalidation",
                peer=node_name,
                blocks=len(blocks),
                mgr_shard=mgr_shard,
            )
        for call in pending:
            yield call.response()
            call.close()
