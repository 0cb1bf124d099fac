"""libpvfs: the client library linked into each application process.

Each process owns private connections to the mgr and to every iod, so
request/response matching is FIFO per connection (the paper's libpvfs
does the same).  When the node carries a cache module, data calls are
routed through it — transparently, exactly like the paper's in-kernel
socket interception: application code is identical in both modes.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.node import Node
from repro.metrics import Metrics
from repro.net import Message
from repro.pvfs import protocol
from repro.pvfs.protocol import (
    FileHandle,
    OpenRequest,
    ReadData,
    ReadRequest,
    WriteRequest,
)
from repro.pvfs.striping import StripeLayout


class PVFSClient:
    """One per application process."""

    def __init__(
        self,
        node: Node,
        mgr_node: str,
        metrics: Metrics,
        mgr_port: int = 3000,
        iod_port: int = 7000,
        use_cache: bool = True,
        record_metrics: bool = True,
        mgr_placements: _t.Sequence[tuple[str, int]] | None = None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.mgr_node = mgr_node
        self.metrics = metrics
        self.mgr_port = mgr_port
        self.iod_port = iod_port
        #: Where each metadata shard lives, ``(node, port)`` by shard
        #: index (DESIGN.md §17).  The default is the classic single
        #: mgr; paths route to shards by deterministic hash.
        self.mgr_placements: tuple[tuple[str, int], ...] = tuple(
            mgr_placements
            if mgr_placements is not None
            else [(mgr_node, mgr_port)]
        )
        #: Route through the node's cache module when present.
        self.use_cache = use_cache
        #: Warmup clients disable recording so steady-state latency
        #: series are not polluted by cold passes.
        self.record_metrics = record_metrics
        #: Identity carried by this client's ``client_io`` records:
        #: ``node0/pid0``, ``node0/pid1``, ... in creation order, so a
        #: rerun records the same names.
        self.process_name = f"{node.name}/pid{node.client_count}"
        node.client_count += 1
        #: Workload tags carried into recorded trace IR events.
        self.app = ""
        self.instance = 0
        self._mgr_eps: dict[int, _t.Any] = {}
        self._iod_eps: dict[str, _t.Any] = {}

    def _trace(
        self, file_id: int, ranges: _t.Sequence[tuple[int, int]], op: str
    ) -> None:
        """Report one data call to the instrumentation bus as
        ``client_io`` records: one carrying the whole shape when the
        ranges form a regular stride (``count > 1``), else one per
        range.

        Reporting is synchronous Python off the event schedule.  The
        data bodies call this only when a subscriber takes
        ``client_io`` and ``record_metrics`` is on, so warmup clients
        stay out of recorded traces.
        """
        stride, count = _as_strided(ranges)
        for offset, nbytes in ranges[:1] if count else ranges:
            self.env.svc_bus.emit(
                "libpvfs",
                "client_io",
                node=self.node.name,
                process=self.process_name,
                file_id=file_id,
                offset=offset,
                nbytes=nbytes,
                op=op,
                app=self.app,
                instance=self.instance,
                stride=stride,
                count=count or 1,
            )

    # -- connections ---------------------------------------------------------
    def _mgr_endpoint(self, shard: int) -> _t.Generator:
        endpoint = self._mgr_eps.get(shard)
        if endpoint is None:
            mgr_node, mgr_port = self.mgr_placements[shard]
            endpoint = yield self.env.process(
                self.node.sockets.connect(mgr_node, mgr_port)
            )
            self._mgr_eps[shard] = endpoint
        return endpoint

    def _iod_endpoint(self, iod_node: str) -> _t.Generator:
        endpoint = self._iod_eps.get(iod_node)
        if endpoint is None:
            endpoint = yield self.env.process(
                self.node.sockets.connect(iod_node, self.iod_port)
            )
            self._iod_eps[iod_node] = endpoint
        return endpoint

    # -- metadata --------------------------------------------------------------
    def open(self, path: str) -> _t.Generator:
        """Process body: open (or create) ``path``; returns FileHandle.

        Metadata is never cached (paper, Section 3): every open talks
        to the mgr.
        """
        return self._mgr_call(protocol.MGR_OPEN, OpenRequest(path), path)

    def stat(self, path: str) -> _t.Generator:
        """Process body: metadata lookup; returns FileHandle or None."""
        return self._mgr_call(protocol.MGR_STAT, protocol.StatRequest(path), path)

    def unlink(self, path: str) -> _t.Generator:
        """Process body: drop the path from the namespace; returns
        whether it existed.  The iods keep the file's stripe data."""
        return self._mgr_call(protocol.MGR_UNLINK, protocol.UnlinkRequest(path), path)

    def listdir(self) -> _t.Generator:
        """Process body: every path in the namespace, sorted.

        With a sharded mgr each shard owns a namespace partition, so
        the listing fans out to every shard and merges the partials.
        """
        return self._mgr_call(protocol.MGR_LIST, None, None)

    def _mgr_call(self, kind: str, payload: _t.Any, path: str | None) -> _t.Generator:
        """The body of every metadata call: one syscall, then ``kind``
        to the shard owning ``path``, or to every shard in shard order
        (the deterministic schedule requirement) when ``path`` is None;
        each shard answers with ``kind`` + ``.ack``."""
        yield self.node.compute(self.node.costs.syscall_s)
        n_shards = len(self.mgr_placements)
        shards = (
            range(n_shards)
            if path is None
            else (protocol.mgr_shard_of(path, n_shards),)
        )
        replies = []
        for shard in shards:
            endpoint = yield from self._mgr_endpoint(shard)
            yield endpoint.send(
                Message(kind=kind, size_bytes=protocol.OPEN_REQ_BYTES, payload=payload)
            )
            ack = yield endpoint.recv()
            if ack.kind != f"{kind}.ack":
                raise ValueError(f"unexpected {kind} reply {ack.kind!r}")
            replies.append(ack.payload)
        if kind == protocol.MGR_OPEN:
            self.metrics.inc("client.opens")
            return replies[0]
        if kind == protocol.MGR_STAT:
            return replies[0].handle
        if kind == protocol.MGR_UNLINK:
            return replies[0].existed
        return sorted(p for reply in replies for p in reply.paths)

    # -- data ------------------------------------------------------------------
    def read(
        self, handle: FileHandle, offset: int, nbytes: int, want_data: bool = False
    ) -> _t.Generator:
        """Process body: read; returns bytes when ``want_data``.

        Routed through the cache module when the node has one.
        """
        return self._read(handle, [(offset, nbytes)], want_data, False)

    def readv(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        want_data: bool = False,
    ) -> _t.Generator:
        """Process body: strided/list read — one call, many ranges.

        The noncontiguous request shape of parallel applications
        (cf. listio in PVFS): the raw path aggregates every range into
        one request per iod — the iods' handlers are range-list native
        — and the cached path serves each range through the cache
        module.  Returns a list of per-range byte strings when
        ``want_data``.
        """
        return self._read(handle, ranges, want_data, True)

    def _read(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        want_data: bool,
        listio: bool,
    ) -> _t.Generator:
        """The body of :meth:`read`, which is the one-range list, and
        (``listio``) :meth:`readv`."""
        if listio:
            ranges = self._check_ranges(ranges)
        cache = self.node.cache_module if self.use_cache else None
        env = self.env
        start = env._now
        bus = env.svc_bus
        if bus is not None and "client_io" in bus.heard and self.record_metrics:
            self._trace(handle.file_id, ranges, "read")
        yield self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            parts = []
            for offset, nbytes in ranges:
                part = yield from cache.read(handle, offset, nbytes, want_data)
                parts.append(part)
        else:
            parts = yield from self._raw_read(handle, ranges, want_data)
        if self.record_metrics:
            # Metrics.record/inc inlined: every read ends here.
            metrics = self.metrics
            metrics.series["client.read_latency"].append(env._now - start)
            counters = metrics.counters
            counters["client.reads"] += 1
            if listio:
                counters["client.list_reads"] += 1
            counters["client.read_bytes"] += (
                ranges[0][1] if len(ranges) == 1 else sum(n for _, n in ranges)
            )
        if listio:
            return parts if want_data else None
        return parts[0]

    def write(
        self, handle: FileHandle, offset: int, nbytes: int, data: bytes | None = None
    ) -> _t.Generator:
        """Process body: buffered write (default, non-coherent path)."""
        return self._write(handle, [(offset, nbytes)], data, False, False)

    def sync_write(
        self, handle: FileHandle, offset: int, nbytes: int, data: bytes | None = None
    ) -> _t.Generator:
        """Process body: coherent write — propagates to the iod and
        invalidates every remote cache holding a written block."""
        return self._write(handle, [(offset, nbytes)], data, True, False)

    def writev(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        data: _t.Sequence[bytes | None] | None = None,
        sync: bool = False,
    ) -> _t.Generator:
        """Process body: strided/list write (``sync`` for coherent).

        ``data``, when given, is one chunk per range.
        """
        return self._write(handle, ranges, data, sync, True)

    def _write(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        data: _t.Any,
        sync: bool,
        listio: bool,
    ) -> _t.Generator:
        """The body of :meth:`write`, (``sync``) :meth:`sync_write` and
        (``listio``) :meth:`writev`.  ``data`` is one chunk per range
        for a list write and the one range's bytes otherwise."""
        if listio:
            ranges = self._check_ranges(ranges)
            if data is not None and len(data) != len(ranges):
                raise ValueError(
                    f"need one chunk per range, got {len(data)} chunks "
                    f"for {len(ranges)} ranges"
                )
            chunks = data
        else:
            chunks = None if data is None else [data]
        if chunks is not None:
            for (_, nbytes), chunk in zip(ranges, chunks):
                if chunk is not None and len(chunk) != nbytes:
                    raise ValueError(f"data length {len(chunk)} != nbytes {nbytes}")
        cache = self.node.cache_module if self.use_cache else None
        env = self.env
        start = env._now
        bus = env.svc_bus
        if bus is not None and "client_io" in bus.heard and self.record_metrics:
            self._trace(handle.file_id, ranges, "sync_write" if sync else "write")
        yield self.node.compute(self.node.costs.syscall_s)
        if cache is None:
            yield from self._raw_write(handle, ranges, chunks, sync)
        else:
            cache_write = cache.sync_write if sync else cache.write
            for i, (offset, nbytes) in enumerate(ranges):
                chunk = chunks[i] if chunks is not None else None
                yield from cache_write(handle, offset, nbytes, chunk)
        if self.record_metrics:
            metrics = self.metrics
            counters = metrics.counters
            if listio:
                counters["client.list_writes"] += 1
            if sync:
                metrics.series["client.sync_write_latency"].append(env._now - start)
                counters["client.sync_writes"] += 1
            else:
                metrics.series["client.write_latency"].append(env._now - start)
                counters["client.writes"] += 1
                counters["client.write_bytes"] += (
                    ranges[0][1] if len(ranges) == 1 else sum(n for _, n in ranges)
                )

    @staticmethod
    def _check_ranges(ranges: _t.Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        out = [(int(offset), int(nbytes)) for offset, nbytes in ranges]
        if not out:
            raise ValueError("need at least one range")
        for offset, nbytes in out:
            if offset < 0 or nbytes < 0:
                raise ValueError(f"bad range ({offset}, {nbytes})")
        return out

    # -- raw (no-cache) protocol -------------------------------------------------
    def _raw_read(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        want_data: bool,
    ) -> _t.Generator:
        """Read over the wire; returns one part per range (``None``
        each unless ``want_data``).

        One request per iod as :meth:`StripeLayout.plan` aggregates
        them.  libpvfs issues every request before it waits on any
        response.
        """
        layout = StripeLayout(handle.n_iods, handle.stripe_size)
        endpoints = []
        for idx, iod_ranges in layout.plan(ranges):
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = ReadRequest(
                file_id=handle.file_id,
                ranges=iod_ranges,
                want_data=want_data,
                requester_node=self.node.name,
            )
            yield self.node.compute(self.node.costs.syscall_s)
            endpoint.send(
                Message(
                    kind=protocol.IOD_READ,
                    size_bytes=req.wire_size(),
                    payload=req,
                )
            )
            endpoints.append(endpoint)
        bufs = [bytearray(n) for _, n in ranges] if want_data else None
        for endpoint in endpoints:
            ack = yield endpoint.recv()
            if ack.kind != protocol.IOD_READ_ACK:
                raise ValueError(f"expected read ack, got {ack.kind!r}")
            data_msg = yield endpoint.recv()
            if data_msg.kind != protocol.IOD_DATA:
                raise ValueError(f"expected data, got {data_msg.kind!r}")
            payload: ReadData = data_msg.payload
            if bufs is None:
                continue
            for (roff, rlen), chunk in zip(payload.ranges, payload.chunks):
                if chunk is None:
                    continue
                # A coalesced wire range may span several of the
                # caller's ranges; copy each overlap back out.
                for buf, (coff, cn) in zip(bufs, ranges):
                    lo = max(roff, coff)
                    hi = min(roff + rlen, coff + cn)
                    if lo < hi:
                        buf[lo - coff : hi - coff] = chunk[
                            lo - roff : hi - roff
                        ]
        if bufs is None:
            return [None] * len(ranges)
        return [bytes(b) for b in bufs]

    def _raw_write(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        chunks: _t.Sequence[bytes | None] | None,
        sync: bool,
    ) -> _t.Generator:
        """Write over the wire (``sync`` for coherent): one request per
        iod as :meth:`StripeLayout.plan_write` plans them, each range's
        pieces with their bytes."""
        plan = StripeLayout(handle.n_iods, handle.stripe_size).plan_write(
            ranges, chunks
        )
        module = self.node.cache_module
        if sync and module is not None:
            # This node's cache module writes back its dirty copies of
            # these bytes first (CacheModule.write_back), so the newer
            # raw bytes land at the iod last.
            yield from module.write_back(handle.file_id, ranges)
        kind = protocol.IOD_SYNC_WRITE if sync else protocol.IOD_WRITE
        ack_kind = protocol.IOD_SYNC_ACK if sync else protocol.IOD_WRITE_ACK
        endpoints = []
        for idx, iod_ranges, iod_chunks in plan:
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = WriteRequest(
                file_id=handle.file_id,
                ranges=iod_ranges,
                chunks=iod_chunks,
                requester_node=self.node.name,
            )
            yield self.node.compute(self.node.costs.syscall_s)
            endpoint.send(
                Message(kind=kind, size_bytes=req.wire_size(), payload=req)
            )
            endpoints.append(endpoint)
        for endpoint in endpoints:
            ack = yield endpoint.recv()
            if ack.kind != ack_kind:
                raise ValueError(f"expected {ack_kind!r}, got {ack.kind!r}")



def _as_strided(ranges: _t.Sequence[tuple[int, int]]) -> tuple[int, int]:
    """``(stride, count)`` when ``ranges`` is a regular non-overlapping
    stride of equal-size requests, else ``(0, 0)``."""
    if len(ranges) < 2:
        return 0, 0
    nbytes = ranges[0][1]
    stride = ranges[1][0] - ranges[0][0]
    if stride < nbytes or nbytes <= 0:
        return 0, 0
    if any(n != nbytes for _, n in ranges):
        return 0, 0
    for (a, _), (b, _) in zip(ranges, ranges[1:]):
        if b - a != stride:
            return 0, 0
    return stride, len(ranges)
