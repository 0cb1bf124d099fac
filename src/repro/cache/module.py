"""The kernel cache module: socket-call interception for libpvfs.

One instance per node, shared by every process on the node.  The
module owns the node's connections to the iods (multiplexed over
:class:`~repro.svc.rpc.RpcChannel`, since responses for different
processes interleave), the buffer manager, the flusher and harvester
kernel threads, and the invalidation listener used by ``sync_write``
coherence.

Requests are processed in bounded *segments* (at most
``CacheConfig.effective_segment_blocks`` blocks pinned at a time) so
that concurrent large requests cannot pin the entire cache — the
equivalent of the real module's progressive copy-out as socket data
arrives.
"""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockState, CacheBlock
from repro.cache.fsm import FSMState, RequestFSM
from repro.cache.harvester import Harvester
from repro.cache.flusher import Flusher
from repro.cache.manager import BufferManager
from repro.cluster.config import CacheConfig
from repro.cluster.node import Node
from repro.disk.filesystem import blocks_spanned
from repro.metrics import Metrics
from repro.net import Message
from repro.pvfs import protocol
from repro.pvfs.protocol import (
    FileHandle,
    InvalidateRequest,
    ReadData,
    ReadRequest,
    WriteRequest,
    coalesce_ranges,
)
from repro.pvfs.striping import StripeLayout
from repro.svc import Service, handles


class CacheModule(Service):
    """The per-node kernel-level shared I/O cache."""

    def __init__(
        self,
        node: Node,
        layout: StripeLayout,
        iod_nodes: _t.Sequence[str],
        metrics: Metrics,
        config: CacheConfig,
        iod_port: int = 7000,
        flush_port: int = 7001,
        invalidate_port: int = 7002,
    ) -> None:
        super().__init__(node.env, f"cache-{node.name}", node=node)
        self.layout = layout
        self.iod_nodes = tuple(iod_nodes)
        self.metrics = metrics
        self.config = config
        self.iod_port = iod_port
        self.invalidate_port = invalidate_port
        self.block_size = config.block_size
        #: Bytes per request segment (see :meth:`_segments`).
        self._seg_bytes = config.effective_segment_blocks * config.block_size
        self.manager = BufferManager(node.env, config, metrics)
        self._k_invalidated = f"{self.manager.name}.invalidated_blocks"
        self.flusher = self.adopt(
            Flusher(
                node,
                self.manager,
                layout,
                iod_nodes,
                metrics,
                period_s=config.flush_period_s,
                flush_port=flush_port,
            )
        )
        self.harvester = self.adopt(
            Harvester(node.env, self.manager, self.flusher, metrics)
        )
        # Evictions pipeline with flushing: every batch of cleaned
        # blocks immediately re-arms the harvester.
        self.flusher.on_clean = self.harvester.wake
        self._iod_pool = self.pool(iod_port, label=self.name)
        #: Cooperative cluster-wide cache extension (attached by the
        #: cluster builder when ``CacheConfig.global_cache`` is set).
        self.gcache = None
        self.readahead = None
        if config.readahead:
            from repro.cache.prefetch import ReadAhead

            self.readahead = ReadAhead(self)

    # -- lifecycle ---------------------------------------------------------
    def _on_start(self) -> None:
        """Load the module: kernel threads + invalidation listener."""
        self.flusher.start()
        self.harvester.start()
        if self.gcache is not None:
            if self.gcache not in self._children:
                self.adopt(self.gcache)
            self.gcache.start()
        self.serve(self.invalidate_port, label="inval")

    def _drain(self) -> _t.Generator:
        """Draining the module == flushing its dirty blocks."""
        yield from self.flusher.drain()

    @handles(protocol.INVALIDATE)
    def _handle_invalidate(self, msg: Message, endpoint) -> _t.Generator:
        req: InvalidateRequest = msg.payload
        yield from self.node.compute(
            self.node.costs.cache_lookup_s * max(1, len(req.block_nos))
        )
        for block_no in req.block_nos:
            self.manager.invalidate((req.file_id, block_no))
        self.metrics.inc("cache.invalidations_received", len(req.block_nos))
        self._emit("invalidation", blocks=len(req.block_nos))
        yield endpoint.send(
            msg.reply(protocol.INVALIDATE_ACK, protocol.ACK_BYTES)
        )

    def stats(self) -> dict[str, _t.Any]:
        """Point-in-time snapshot of this node's cache state."""
        states: dict[str, int] = {}
        for block in self.manager.blocks:
            states[block.state.value] = states.get(block.state.value, 0) + 1
        return {
            "node": self.node.name,
            "n_blocks": self.config.n_blocks,
            "resident": self.manager.n_resident,
            "free": self.manager.n_free,
            "dirty": self.manager.n_dirty,
            "states": states,
            "flush_inflight": len(self.flusher._inflight),
            "gcache": self.gcache is not None,
            "readahead": self.readahead is not None,
        }

    def _channel(self, iod_node: str) -> _t.Generator:
        channel = yield from self._iod_pool.channel(iod_node)
        return channel

    # -- geometry helpers ------------------------------------------------------
    def _segments(
        self, offset: int, nbytes: int
    ) -> _t.Iterator[tuple[int, int]]:
        """Split a request into block-bounded segments of at most
        ``effective_segment_blocks`` blocks."""
        seg_bytes = self._seg_bytes
        pos = offset
        end = offset + nbytes
        while pos < end:
            # Segment boundary aligned to the block grid.
            boundary = ((pos // seg_bytes) + 1) * seg_bytes
            nxt = min(end, boundary)
            yield pos, nxt - pos
            pos = nxt

    def _block_slice(
        self, offset: int, nbytes: int, block_no: int
    ) -> tuple[int, int]:
        """Overlap of the request with ``block_no`` in block coords
        (start, end)."""
        bs = self.block_size
        lo = max(offset, block_no * bs)
        hi = min(offset + nbytes, (block_no + 1) * bs)
        return lo - block_no * bs, hi - block_no * bs

    def _iod_for_block(self, block_no: int) -> str:
        return self.iod_nodes[
            self.layout.iod_index(block_no * self.block_size)
        ]

    # -- read ----------------------------------------------------------------------
    def read(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        want_data: bool = False,
    ) -> _t.Generator:
        """Process body: serve a read through the cache."""
        if nbytes == 0:
            return b"" if want_data else None
        buf = bytearray(nbytes) if want_data else None
        yield from self._pipeline_segments(
            offset, nbytes, self._read_segment, handle, buf, offset
        )
        self.metrics.inc("cache.read_requests")
        if self.readahead is not None:
            blocks = blocks_spanned(offset, nbytes, self.block_size)
            self.readahead.observe_read(handle, blocks[0], len(blocks))
        return bytes(buf) if buf is not None else None

    #: How many segments of one request may be in flight at once.
    #: Depth 2 keeps the wire busy across segment boundaries while
    #: bounding pinned blocks to 2 x segment_blocks per request.
    PIPELINE_DEPTH = 2

    def _pipeline_segments(
        self,
        offset: int,
        nbytes: int,
        run_segment: _t.Callable[..., _t.Generator],
        *args: _t.Any,
    ) -> _t.Generator:
        """Run a request's segments with bounded overlap: the generator
        of ``run_segment(seg_offset, seg_nbytes, *args)`` itself when
        the request fits one segment (the common case), else a
        pipelining one."""
        seg_bytes = self._seg_bytes
        if offset // seg_bytes == (offset + nbytes - 1) // seg_bytes:
            return run_segment(offset, nbytes, *args)
        return self._run_pipelined(
            list(self._segments(offset, nbytes)), run_segment, args
        )

    def _run_pipelined(
        self,
        segments: list[tuple[int, int]],
        run_segment: _t.Callable[..., _t.Generator],
        args: tuple,
    ) -> _t.Generator:
        """Process body: at most ``PIPELINE_DEPTH`` segments in flight."""
        if len(segments) <= self.PIPELINE_DEPTH:
            # Few enough segments that the depth limit cannot bind:
            # skip the slot Resource entirely (its request/grant events
            # are pure overhead when every grant is immediate).
            procs = [
                self.env.process(run_segment(so, sn, *args), name=f"seg-{so}")
                for so, sn in segments
            ]
            yield self.env.all_of(procs)
            return
        from repro.sim import Resource

        slots = Resource(self.env, capacity=self.PIPELINE_DEPTH)

        def runner(so: int, sn: int) -> _t.Generator:
            with slots.request() as req:
                yield req
                yield from run_segment(so, sn, *args)

        procs = [
            self.env.process(runner(so, sn), name=f"seg-{so}")
            for so, sn in segments
        ]
        yield self.env.all_of(procs)

    def _read_segment(
        self,
        offset: int,
        nbytes: int,
        handle: FileHandle,
        buf: bytearray | None,
        request_base: int,
    ) -> _t.Generator:
        fsm = RequestFSM(self.env)
        fsm.to(FSMState.LOOKUP)
        block_nos = list(blocks_spanned(offset, nbytes, self.block_size))
        yield from self.node.compute(
            self.node.costs.cache_lookup_s * len(block_nos)
        )
        pinned: list[CacheBlock] = []
        #: blocks we allocated (whole-block fetch), by block_no.
        owned: dict[int, CacheBlock] = {}
        #: resident blocks with gaps to fill: block_no -> (block, gaps)
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]] = {}
        #: every block this segment touched, by block_no — pinned for
        #: the whole segment, so the copy-out loop can use these
        #: directly instead of re-probing the hash table.
        resolved: dict[int, CacheBlock] = {}
        try:
            manager = self.manager
            for block_no in block_nos:
                key = (handle.file_id, block_no)
                start, end = self._block_slice(offset, nbytes, block_no)
                block, resident = manager.probe(key)
                if block is None or (
                    resident and block.state is BlockState.PENDING
                ):
                    yield from self._classify_block(
                        key, start, end, block,
                        pinned, owned, gappy, resolved,
                    )
                else:
                    self._classify(
                        block_no, start, end, block, resident,
                        pinned, owned, gappy, resolved,
                    )
            if owned or gappy:
                yield from self._fetch(
                    handle, fsm, owned, gappy, buf is not None
                )
            else:
                self.metrics.inc("cache.fully_hit_segments")
            fsm.to(FSMState.COPY)
            # The kernel->user copy is an *extra* cost only for blocks
            # served from the cache; for fetched blocks it replaces the
            # socket-receive copy that the no-cache path performs
            # inside its network transfer.
            served_from_cache = len(block_nos) - len(owned)
            yield from self.node.compute(
                self.node.costs.cache_copy_block_s * served_from_cache
            )
            if buf is not None:
                for block_no in block_nos:
                    block = resolved.get(block_no)
                    if block is None:
                        continue
                    start, end = self._block_slice(offset, nbytes, block_no)
                    piece = block.read_slice(start, end)
                    if piece is not None:
                        dst = block_no * self.block_size + start - request_base
                        buf[dst : dst + (end - start)] = piece
            fsm.to(FSMState.DONE)
        finally:
            for block in pinned:
                self.manager.unpin(block)
        self.metrics.inc("cache.read_segments")

    def _classify(
        self,
        block_no: int,
        start: int,
        end: int,
        block: CacheBlock,
        resident: bool,
        pinned: list[CacheBlock],
        owned: dict[int, CacheBlock],
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
        resolved: dict[int, CacheBlock],
    ) -> None:
        """Pin a probed block and book it as a miss, hit or partial hit.

        ``block`` is freshly allocated (``resident`` false: the segment
        fetches it whole) or resident and not PENDING.
        """
        block.pin()
        pinned.append(block)
        resolved[block_no] = block
        if not resident:
            owned[block_no] = block
            self.metrics.inc("cache.misses")
        else:
            self._classify_valid(block_no, start, end, block, gappy)

    def _classify_valid(
        self,
        block_no: int,
        start: int,
        end: int,
        block: CacheBlock,
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
    ) -> None:
        """Hit or partial hit on a pinned resident block with data."""
        if block.valid.covers(start, end):
            self.metrics.inc("cache.hits")
            return
        gappy[block_no] = (block, block.valid.gaps(start, end))
        self.metrics.inc("cache.partial_hits")

    def _classify_block(
        self,
        key: tuple[int, int],
        start: int,
        end: int,
        block: CacheBlock | None,
        pinned: list[CacheBlock],
        owned: dict[int, CacheBlock],
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
        resolved: dict[int, CacheBlock],
    ) -> _t.Generator:
        """The waits of classifying one block, after the probe.

        ``block`` is the probed PENDING block, or ``None`` when no free
        frame could be taken in place.
        """
        block_no = key[1]
        while True:
            if block is None:
                block, resident = yield from self.manager.get_or_allocate(key)
                if not resident:
                    self._classify(
                        block_no, start, end, block, False,
                        pinned, owned, gappy, resolved,
                    )
                    return
                # Raced: re-examine the resident block.
                block = self.manager.lookup(key)
                continue
            if block.state is not BlockState.PENDING:
                self._classify(
                    block_no, start, end, block, True,
                    pinned, owned, gappy, resolved,
                )
                return
            block.pin()
            pinned.append(block)
            resolved[block_no] = block
            # Another process is fetching this block: wait for its
            # data instead of issuing a duplicate request.  This is the
            # inter-application de-duplication path.
            self.metrics.inc("cache.pending_waits")
            try:
                yield block.ready(self.env)
            except RuntimeError:
                # Fetch owner disappeared; retry from scratch.
                self.manager.unpin(block)
                pinned.remove(block)
                block = self.manager.lookup(key)
                continue
            self._classify_valid(block_no, start, end, block, gappy)
            return

    def _fetch(
        self,
        handle: FileHandle,
        fsm: RequestFSM,
        owned: dict[int, CacheBlock],
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
        want_data: bool,
    ) -> _t.Generator:
        """Issue the miss requests and merge the arriving data."""
        bs = self.block_size
        if self.gcache is not None and owned:
            # Cooperative global cache: ask each missing block's home
            # node before touching the iods.
            remote_hits = yield from self.gcache.lookup_remote(
                handle.file_id, list(owned), want_data
            )
            for block_no, data in remote_hits.items():
                block = owned.pop(block_no)
                block.merge_fetch(0, bs, data)
                block.make_ready()
            if not owned and not gappy:
                fsm.to(FSMState.REQUESTS_ISSUED)
                fsm.to(FSMState.ACK_FAKED)
                fsm.to(FSMState.AWAIT_DATA)
                return
        # Absolute byte ranges to request.
        ranges: list[tuple[int, int]] = [
            (block_no * bs, bs) for block_no in owned
        ]
        for block_no, (_block, gaps) in gappy.items():
            for lo, hi in gaps:
                ranges.append((block_no * bs + lo, hi - lo))
        per_iod: dict[str, list[tuple[int, int]]] = {}
        for off, n in ranges:
            iod = self.iod_nodes[self.layout.iod_index(off)]
            per_iod.setdefault(iod, []).append((off, n))
        fsm.to(FSMState.REQUESTS_ISSUED)
        calls = []
        requested_bytes = 0
        for iod_node in sorted(per_iod):
            iod_ranges = coalesce_ranges(per_iod[iod_node])
            if not self.config.split_on_cached_block and len(iod_ranges) > 1:
                # Ablation: no request splitting — fetch the full hull,
                # re-transferring the cached blocks in the middle.
                lo = min(r[0] for r in iod_ranges)
                hi = max(r[0] + r[1] for r in iod_ranges)
                iod_ranges = [(lo, hi - lo)]
            else:
                fsm.split_requests += len(iod_ranges) - 1
                self.metrics.inc("cache.split_requests", len(iod_ranges) - 1)
            requested_bytes += sum(n for _, n in iod_ranges)
            channel = yield from self._channel(iod_node)
            req = ReadRequest(
                file_id=handle.file_id,
                ranges=iod_ranges,
                from_cache=True,
                requester_node=self.node.name,
                want_data=want_data,
            )
            calls.append(
                channel.call(
                    Message(
                        kind=protocol.IOD_READ,
                        size_bytes=req.wire_size(),
                        payload=req,
                    )
                )
            )
        # The real iod acks arrive later on the shared socket; the
        # module acknowledges libpvfs locally right away.
        fsm.to(FSMState.ACK_FAKED)
        fsm.fake_ack(len(calls))
        self.metrics.inc("cache.faked_acks", len(calls))
        yield from self.node.compute(self.node.costs.cache_fsm_s)
        fsm.to(FSMState.AWAIT_DATA)
        for call in calls:
            ack = yield call.response()
            if ack.kind != protocol.IOD_READ_ACK:
                raise ValueError(f"expected read ack, got {ack.kind!r}")
            data_msg = yield call.response()
            if data_msg.kind != protocol.IOD_DATA:
                raise ValueError(f"expected data, got {data_msg.kind!r}")
            call.close()
            payload: ReadData = data_msg.payload
            for (roff, rlen), chunk in zip(payload.ranges, payload.chunks):
                self._merge_range(handle.file_id, roff, rlen, chunk, owned, gappy)
        for block in owned.values():
            block.make_ready()
            if block.doomed and block.pins == 0:
                # A coherence invalidation raced this fetch: the iod
                # snapshot may predate the remote sync_write, so the
                # bytes just merged can be stale.  Unpinned here means
                # nobody is mid-copy (a prefetch), so drop the block
                # now; pinned blocks are dropped by the last unpin.
                self.manager.evict(block, force=True)
                self.metrics.inc(self._k_invalidated)
        # Count what actually crossed the wire (hull mode re-fetches
        # cached middle blocks, so this can exceed the needed ranges).
        self.metrics.inc("cache.fetched_bytes", requested_bytes)

    def _merge_range(
        self,
        file_id: int,
        roff: int,
        rlen: int,
        chunk: bytes | None,
        owned: dict[int, CacheBlock],
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
    ) -> None:
        bs = self.block_size
        for block_no in blocks_spanned(roff, rlen, bs):
            block = owned.get(block_no)
            if block is None and block_no in gappy:
                block = gappy[block_no][0]
            if block is None:
                # Hull-mode over-fetch covering an already-valid block.
                continue
            lo = max(roff, block_no * bs)
            hi = min(roff + rlen, (block_no + 1) * bs)
            piece = (
                chunk[lo - roff : hi - roff] if chunk is not None else None
            )
            block.merge_fetch(lo - block_no * bs, hi - block_no * bs, piece)

    # -- write --------------------------------------------------------------------
    def write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None = None,
    ) -> _t.Generator:
        """Process body: buffered write — cache only, flushed later.

        Control returns to libpvfs as soon as the bytes are in cache
        blocks; the flusher propagates them in the background.  May
        block waiting for free blocks when the cache is full (the
        paper's observed behaviour for large writes).
        """
        if nbytes == 0:
            return
        yield from self._pipeline_segments(
            offset, nbytes, self._write_segment, handle, data, offset, False
        )
        self.metrics.inc("cache.write_requests")

    def sync_write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None = None,
    ) -> _t.Generator:
        """Process body: coherent write — cache + iod + invalidations."""
        if nbytes == 0:
            return
        yield from self._pipeline_segments(
            offset, nbytes, self._write_segment, handle, data, offset, True
        )
        self.metrics.inc("cache.sync_write_requests")

    def _write_segment(
        self,
        offset: int,
        nbytes: int,
        handle: FileHandle,
        data: bytes | None,
        request_base: int,
        sync: bool,
    ) -> _t.Generator:
        fsm = RequestFSM(self.env)
        fsm.to(FSMState.LOOKUP)
        block_nos = list(blocks_spanned(offset, nbytes, self.block_size))
        yield from self.node.compute(
            self.node.costs.cache_lookup_s * len(block_nos)
        )
        touched: list[tuple[CacheBlock, int]] = []  # (block, epoch)
        for block_no in block_nos:
            key = (handle.file_id, block_no)
            start, end = self._block_slice(offset, nbytes, block_no)
            piece = None
            if data is not None:
                src = block_no * self.block_size + start - request_base
                piece = data[src : src + (end - start)]
            # A write needs no data, so a PENDING block serves as is.
            block, resident = self.manager.probe(key)
            if block is None:
                block, resident = yield from self.manager.get_or_allocate(key)
            # CacheBlock.write is synchronous (not the yielding
            # CacheModule.write that shares its name) — no yield from.
            block.write(start, end, piece)
            self.manager.note_write(block)
            if not resident:
                # Write-allocate: no fetch needed, the block is born
                # dirty; wake any waiters immediately.
                block.make_ready()
                self.metrics.inc("cache.write_allocates")
            else:
                self.metrics.inc("cache.write_hits")
            touched.append((block, block.dirty_epoch))
        # Copy user -> kernel.
        fsm.to(FSMState.COPY)
        yield from self.node.compute(
            self.node.costs.cache_copy_block_s * len(block_nos)
        )
        if sync:
            yield from self._propagate_sync(handle, offset, nbytes, data, request_base)
            for block, epoch in touched:
                self.manager.note_cleaned(block, epoch)
        fsm.to(FSMState.DONE)
        self.metrics.inc("cache.write_segments")

    def _propagate_sync(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None,
        request_base: int,
    ) -> _t.Generator:
        """Write through to the iods and wait for their sync acks
        (which include the remote invalidations)."""
        per_iod = self.layout.split(offset, nbytes)
        calls = []
        for idx, ranges in sorted(per_iod.items()):
            ranges = coalesce_ranges(ranges)
            chunks: list[bytes | None] = [
                data[roff - request_base : roff - request_base + rlen]
                if data is not None
                else None
                for roff, rlen in ranges
            ]
            channel = yield from self._channel(handle.iod_nodes[idx])
            req = WriteRequest(
                file_id=handle.file_id,
                ranges=ranges,
                chunks=chunks,
                from_cache=True,
                requester_node=self.node.name,
                sync=True,
            )
            calls.append(
                channel.call(
                    Message(
                        kind=protocol.IOD_SYNC_WRITE,
                        size_bytes=req.wire_size(),
                        payload=req,
                    )
                )
            )
        for call in calls:
            ack = yield call.response()
            if ack.kind != protocol.IOD_SYNC_ACK:
                raise ValueError(f"expected sync ack, got {ack.kind!r}")
            call.close()
        self.metrics.inc("cache.sync_propagations", len(calls))
