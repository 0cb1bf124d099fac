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

The paper's per-socket finite state machine is the control flow of
``_read_segment`` and ``_fetch``: look up, split the miss requests
around cached blocks, fake the iods' acknowledgements, await the
data, copy out.  The ``cache.split_requests`` and ``cache.faked_acks``
counters record its two visible effects.  Which iod gets which bytes is
:meth:`~repro.pvfs.striping.StripeLayout.plan`'s answer, the planner
libpvfs uses too.
"""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockState, CacheBlock, ready_run
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
        self.readahead = None
        if config.readahead:
            from repro.cache.prefetch import ReadAhead

            self.readahead = ReadAhead(self)

    # -- lifecycle ---------------------------------------------------------
    def _on_start(self) -> None:
        """Load the module: kernel threads + invalidation listener."""
        self.flusher.start()
        self.harvester.start()
        self.serve(self.invalidate_port, label="inval")

    def _drain(self) -> _t.Generator:
        """Draining the module == flushing its dirty blocks."""
        yield from self.flusher.drain()

    @handles(protocol.INVALIDATE)
    def _handle_invalidate(self, msg: Message, endpoint) -> _t.Generator:
        req: InvalidateRequest = msg.payload
        yield self.node.compute(
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
            "flush_inflight": sum(
                1 for block in self.manager.blocks if block.writeback
            ),
            "readahead": self.readahead is not None,
        }

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
        self.metrics.counters["cache.read_requests"] += 1
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
        counters = self.metrics.counters
        block_nos = blocks_spanned(offset, nbytes, self.block_size)
        yield self.node.compute(
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
            file_id = handle.file_id
            bs = self.block_size
            stop = offset + nbytes
            want_data = buf is not None
            n = len(block_nos)
            i = 0
            while i < n:
                fresh, block, _ = manager.probe(file_id, block_nos, i)
                if fresh:
                    # Misses, fetched whole by this segment.
                    for block_no, frame in zip(block_nos[i:], fresh):
                        frame.pins += 1
                        owned[block_no] = resolved[block_no] = frame
                    pinned += fresh
                    counters["cache.misses"] += len(fresh)
                    i += len(fresh)
                    if i == n:
                        break
                block_no = block_nos[i]
                # _block_slice, inlined: every hit comes through here.
                base = block_no * bs
                start = offset - base if offset > base else 0
                end = stop - base if stop < base + bs else bs
                if block is None or block.state is BlockState.PENDING:
                    # The probe's reservation check is not acted on
                    # across the wait: get_or_allocate re-probes.
                    yield from self._classify_block(
                        (file_id, block_no), start, end, block,
                        pinned, owned, gappy, resolved, want_data,
                    )
                else:
                    # Resident with data: a hit or a partial hit.
                    block.pins += 1
                    pinned.append(block)
                    resolved[block_no] = block
                    self._classify_valid(
                        block_no, start, end, block, gappy, want_data
                    )
                i += 1
            if owned or gappy:
                yield from self._fetch(handle, owned, gappy, want_data)
            else:
                counters["cache.fully_hit_segments"] += 1
            # The kernel->user copy is an *extra* cost only for blocks
            # served from the cache; for fetched blocks it replaces the
            # socket-receive copy that the no-cache path performs
            # inside its network transfer.
            served_from_cache = len(block_nos) - len(owned)
            if served_from_cache:
                # (compute(0) holds nothing and resumes at once, so an
                # all-miss segment skips the round trip.)
                yield self.node.compute(
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
        finally:
            self.manager.unpin_run(pinned)
        counters["cache.read_segments"] += 1

    def _classify_valid(
        self,
        block_no: int,
        start: int,
        end: int,
        block: CacheBlock,
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
        want_data: bool,
    ) -> None:
        """Hit or partial hit on a pinned resident block with data.

        A size-only fetch leaves valid bytes that the block does not
        hold (``data`` is None, or the block is ``hollow``): a read that
        wants bytes counts such a block a miss and fetches all of it but
        its dirty bytes again, so no valid byte is left without its
        bytes."""
        if want_data and (block.data is None or block.hollow):
            gaps = block.dirty.gaps(0, self.block_size)
            block.hollow = False
            if gaps:
                gappy[block_no] = (block, gaps)
                self.metrics.counters["cache.misses"] += 1
                return
        if block.valid.covers(start, end):
            self.metrics.counters["cache.hits"] += 1
            return
        gappy[block_no] = (block, block.valid.gaps(start, end))
        self.metrics.counters["cache.partial_hits"] += 1

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
        want_data: bool,
    ) -> _t.Generator:
        """The waits of classifying one block, after the probe.

        ``block`` is the probed PENDING block, or ``None`` when no free
        frame could be taken in place.
        """
        block_no = key[1]
        manager = self.manager
        while True:
            if block is None:
                block, resident = yield from manager.get_or_allocate(key)
                if resident:
                    # Raced: re-examine the resident block.
                    block = manager.lookup(key)
                    continue
                block.pins += 1
                pinned.append(block)
                owned[block_no] = resolved[block_no] = block
                self.metrics.inc("cache.misses")
                return
            block.pins += 1
            pinned.append(block)
            resolved[block_no] = block
            if block.state is not BlockState.PENDING:
                self._classify_valid(
                    block_no, start, end, block, gappy, want_data
                )
                return
            # Another process is fetching this block: wait for its
            # data instead of issuing a duplicate request.  This is the
            # inter-application de-duplication path.
            self.metrics.inc("cache.pending_waits")
            try:
                yield block.ready(self.env)
            except RuntimeError:
                # Fetch owner disappeared; retry from scratch.
                manager.unpin_run((block,))
                pinned.remove(block)
                block = manager.lookup(key)
                continue
            self._classify_valid(
                block_no, start, end, block, gappy, want_data
            )
            return

    def _fetch(
        self,
        handle: FileHandle,
        owned: dict[int, CacheBlock],
        gappy: dict[int, tuple[CacheBlock, list[tuple[int, int]]]],
        want_data: bool,
    ) -> _t.Generator:
        """Issue the miss requests and merge the arriving data."""
        bs = self.block_size
        counters = self.metrics.counters
        # Absolute byte ranges to request: one per run of consecutive
        # owned blocks, and one per gap of a partly valid block.
        ranges: list[tuple[int, int]] = []
        for block_no in owned:
            off = block_no * bs
            if ranges and ranges[-1][0] + ranges[-1][1] == off:
                ranges[-1] = (ranges[-1][0], ranges[-1][1] + bs)
            else:
                ranges.append((off, bs))
        for block_no, (_block, gaps) in gappy.items():
            for lo, hi in gaps:
                ranges.append((block_no * bs + lo, hi - lo))
        split = self.config.split_on_cached_block
        if not split:
            # Ablation: no request splitting — fetch the hull of the
            # missing ranges, re-transferring the cached blocks in its
            # middle (each iod still gets only its own stripe units).
            lo = min(off for off, _ in ranges)
            hi = max(off + n for off, n in ranges)
            ranges = [(lo, hi - lo)]
        calls = []
        requested_bytes = 0
        for idx, iod_ranges in self.layout.plan(ranges):
            if split:
                counters["cache.split_requests"] += len(iod_ranges) - 1
            requested_bytes += sum(n for _, n in iod_ranges)
            channel = yield from self._iod_pool.channel(self.iod_nodes[idx])
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
        counters["cache.faked_acks"] += len(calls)
        yield self.node.compute(self.node.costs.cache_fsm_s)
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
        # A doomed block's fetch raced a coherence invalidation: the
        # iod's snapshot may predate the remote sync_write, so its
        # frame goes as soon as nothing holds it (a reader's pin or a
        # write-back mark).
        ready_run(owned.values(), self.manager.release_if_unheld)
        # Count what actually crossed the wire (hull mode re-fetches
        # cached middle blocks, so this can exceed the needed ranges).
        counters["cache.fetched_bytes"] += requested_bytes

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
        rend = roff + rlen
        for block_no in blocks_spanned(roff, rlen, bs):
            block = owned.get(block_no)
            if block is None and block_no in gappy:
                block = gappy[block_no][0]
            if block is None:
                # Hull-mode over-fetch covering an already-valid block.
                continue
            base = block_no * bs
            lo = roff if roff > base else base
            hi = rend if rend < base + bs else base + bs
            piece = (
                chunk[lo - roff : hi - roff] if chunk is not None else None
            )
            if hi - lo == bs and not block.valid._bounds:
                # A whole block into a frame holding no bytes yet (a
                # fresh miss): nothing to keep, so nothing to merge.
                block.valid._bounds = [0, bs]
                if piece is not None:
                    if len(piece) != bs:
                        raise ValueError(
                            f"fill of {len(piece)} bytes into a block of {bs}"
                        )
                    block.data = bytearray(piece)
                continue
            block.merge_fetch(lo - base, hi - base, piece)

    # -- write --------------------------------------------------------------------
    def write(
        self, handle: FileHandle, offset: int, nbytes: int, data: bytes | None = None
    ) -> _t.Generator:
        """Process body: buffered write — cache only, flushed later.

        Control returns to libpvfs as soon as the bytes are in cache
        blocks; the flusher propagates them in the background.  May
        block waiting for free blocks when the cache is full (the
        paper's observed behaviour for large writes).
        """
        return self._write(handle, offset, nbytes, data, False)

    def sync_write(
        self, handle: FileHandle, offset: int, nbytes: int, data: bytes | None = None
    ) -> _t.Generator:
        """Process body: coherent write — cache + iod + invalidations."""
        return self._write(handle, offset, nbytes, data, True)

    def _write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None,
        sync: bool,
    ) -> _t.Generator:
        """The body of :meth:`write` and (``sync``) :meth:`sync_write`."""
        if nbytes == 0:
            return
        yield from self._pipeline_segments(
            offset, nbytes, self._write_segment, handle, data, offset, sync
        )
        self.metrics.counters[
            "cache.sync_write_requests" if sync else "cache.write_requests"
        ] += 1

    def _write_segment(
        self,
        offset: int,
        nbytes: int,
        handle: FileHandle,
        data: bytes | None,
        request_base: int,
        sync: bool,
    ) -> _t.Generator:
        block_nos = blocks_spanned(offset, nbytes, self.block_size)
        yield self.node.compute(
            self.node.costs.cache_lookup_s * len(block_nos)
        )
        touched: list[tuple[CacheBlock, int]] = []  # (block, epoch)
        manager = self.manager
        file_id = handle.file_id
        n = len(block_nos)
        i = 0
        while i < n:
            # A write needs no data, so a PENDING block serves as is.
            fresh, block, resident = manager.probe(file_id, block_nos, i)
            # Write the run's blocks before anything can wait.
            for block_no, frame in zip(block_nos[i:], fresh):
                touched.append(
                    self._write_into(
                        frame, False, block_no, offset, nbytes, data,
                        request_base,
                    )
                )
            i += len(fresh)
            if i == n:
                break
            if block is None:
                # get_or_allocate re-probes: the probe's reservation
                # check is not acted on across its wait.
                block, resident = yield from manager.get_or_allocate(
                    (file_id, block_nos[i])
                )
            touched.append(
                self._write_into(
                    block, resident, block_nos[i], offset, nbytes, data,
                    request_base,
                )
            )
            i += 1
        # Copy user -> kernel.
        yield self.node.compute(
            self.node.costs.cache_copy_block_s * len(block_nos)
        )
        if sync:
            # A flush batch still carrying older bytes of these blocks
            # must land at the iods first.
            yield from self._await_flush_batches([b for b, _ in touched])
            # From here until the ack, the blocks still DIRTY under
            # their keys hold the write-back mark: no flush round ships
            # them again, and no invalidation frees them before the ack
            # finds them.  The rest need no mark and no cleaning: a
            # batch already cleaned them, or they were dropped and
            # their frames refetched (PENDING or CLEAN again).
            table = manager.table
            dirty = BlockState.DIRTY
            marked = [
                (block, epoch)
                for (block, epoch), block_no in zip(touched, block_nos)
                if block.state is dirty
                and table.get((file_id, block_no)) is block
            ]
            for block, _ in marked:
                block.writeback += 1
            yield from self._propagate_sync(handle, offset, nbytes, data, request_base)
            for block, epoch in marked:
                manager.note_cleaned(block, epoch)
                manager.end_writeback(block)
        self.metrics.counters["cache.write_segments"] += 1

    def _await_flush_batches(
        self, blocks: _t.Sequence[CacheBlock]
    ) -> _t.Generator:
        """Process body: return once no flush batch carries any of
        ``blocks``.  Re-scans after each wait: the blocks may sit in
        several batches, and an unmarked one may go into a new batch
        meanwhile."""
        env = self.env
        while True:
            block = next((b for b in blocks if b.flushing), None)
            if block is None:
                return
            yield block.flushed(env)

    def _write_into(
        self,
        block: CacheBlock,
        resident: bool,
        block_no: int,
        offset: int,
        nbytes: int,
        data: bytes | None,
        request_base: int,
    ) -> tuple[CacheBlock, int]:
        """Copy a write's bytes into one probed block; ``(block, epoch)``."""
        start, end = self._block_slice(offset, nbytes, block_no)
        piece = None
        if data is not None:
            src = block_no * self.block_size + start - request_base
            piece = data[src : src + (end - start)]
        # CacheBlock.write is synchronous (not the yielding
        # CacheModule.write that shares its name) — no yield from.
        block.write(start, end, piece)
        self.manager.note_write(block)
        if not resident:
            # Write-allocate: no fetch needed, the block is born
            # dirty; wake any waiters immediately.
            ready_run((block,))
            self.metrics.counters["cache.write_allocates"] += 1
        else:
            self.metrics.counters["cache.write_hits"] += 1
        return block, block.dirty_epoch

    def write_back(
        self, file_id: int, ranges: _t.Sequence[tuple[int, int]]
    ) -> _t.Generator:
        """Process body: ship this node's dirty copies of the blocks
        under ``ranges`` and wait until no flush batch carrying them is
        on the wire.

        A raw (uncached) ``sync_write`` on this node calls it before it
        writes through: the iod then takes the older buffered bytes
        first, and the raw write's invalidation, which spares no node,
        drops this node's now-clean copy.  Otherwise the later flush
        would write the older bytes over the newer ones at the iod.
        A block under a cached ``sync_write`` of this node is neither
        shipped nor waited for: the two writes are concurrent, and its
        write-through is the one on the wire.  Schedules nothing when
        no such block is dirty or in a flush batch.
        """
        table = self.manager.table
        bs = self.block_size
        held = [
            block
            for off, n in ranges
            for block_no in blocks_spanned(off, n, bs)
            if (block := table.get((file_id, block_no))) is not None
        ]
        dirty = [b for b in held if b.state is BlockState.DIRTY]
        if dirty:
            yield from self.flusher.initiate_flush(dirty)
        yield from self._await_flush_batches(held)

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
        chunks = (
            None
            if data is None
            else [data[offset - request_base : offset - request_base + nbytes]]
        )
        calls = []
        for idx, ranges, iod_chunks in self.layout.plan_write(
            [(offset, nbytes)], chunks
        ):
            channel = yield from self._iod_pool.channel(self.iod_nodes[idx])
            req = WriteRequest(
                file_id=handle.file_id,
                ranges=ranges,
                chunks=iod_chunks,
                from_cache=True,
                requester_node=self.node.name,
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
