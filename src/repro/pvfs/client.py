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
    coalesce_ranges,
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
        #: Optional access-trace hook for the sharing-pattern
        #: classifier: called as ``sink(time, process, file_id,
        #: offset, nbytes, op)`` on every data call.
        self.trace_sink: _t.Callable[..., None] | None = None
        #: Identity reported to the trace sink.
        self.process_name = f"{node.name}/pid{id(self) % 100000}"
        #: Workload tags carried into recorded trace IR events.
        self.app = ""
        self.instance = 0
        self._mgr_eps: dict[int, _t.Any] = {}
        self._iod_eps: dict[str, _t.Any] = {}

    def _trace(
        self,
        file_id: int,
        offset: int,
        nbytes: int,
        op: str,
        stride: int = 0,
        count: int = 1,
    ) -> None:
        """Report one data call to the trace sink and, when anyone is
        listening, to the instrumentation bus.

        ``count > 1`` is a regular strided request: one ``client_io``
        bus record carries the whole shape, while the legacy per-range
        sink sees each range separately.  Both reporting paths are
        synchronous Python off the event schedule, and the bus path is
        gated on ``record_metrics`` so warmup clients stay out of
        recorded traces.
        """
        if self.trace_sink is not None:
            for i in range(count):
                self.trace_sink(
                    self.env.now,
                    self.process_name,
                    file_id,
                    offset + i * stride,
                    nbytes,
                    op,
                )
        bus = self.env.svc_bus
        if bus is not None and bus.active and self.record_metrics:
            bus.emit(
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
                count=count,
            )

    def _trace_ranges(
        self, file_id: int, ranges: _t.Sequence[tuple[int, int]], op: str
    ) -> None:
        """Report a list-I/O call: one strided record when the ranges
        form a regular stride, else one record per range."""
        stride, count = _as_strided(ranges)
        if count:
            self._trace(
                file_id, ranges[0][0], ranges[0][1], op,
                stride=stride, count=count,
            )
        else:
            for offset, nbytes in ranges:
                self._trace(file_id, offset, nbytes, op)

    # -- connections ---------------------------------------------------------
    def _mgr_shard(self, path: str) -> int:
        """The metadata shard owning ``path``."""
        return protocol.mgr_shard_of(path, len(self.mgr_placements))

    def _mgr_endpoint(self, shard: int = 0) -> _t.Generator:
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

    @property
    def _cache(self):
        return self.node.cache_module if self.use_cache else None

    # -- API -------------------------------------------------------------------
    def open(self, path: str) -> _t.Generator:
        """Process body: open (or create) ``path``; returns FileHandle.

        Metadata is never cached (paper, Section 3): every open talks
        to the mgr.
        """
        yield from self.node.compute(self.node.costs.syscall_s)
        endpoint = yield from self._mgr_endpoint(self._mgr_shard(path))
        yield endpoint.send(
            Message(
                kind=protocol.MGR_OPEN,
                size_bytes=protocol.OPEN_REQ_BYTES,
                payload=OpenRequest(path=path),
            )
        )
        ack = yield endpoint.recv()
        if ack.kind != protocol.MGR_OPEN_ACK:
            raise ValueError(f"unexpected open reply {ack.kind!r}")
        self.metrics.inc("client.opens")
        return ack.payload

    def stat(self, path: str) -> _t.Generator:
        """Process body: metadata lookup; returns FileHandle or None."""
        yield from self.node.compute(self.node.costs.syscall_s)
        endpoint = yield from self._mgr_endpoint(self._mgr_shard(path))
        yield endpoint.send(
            Message(
                kind=protocol.MGR_STAT,
                size_bytes=protocol.OPEN_REQ_BYTES,
                payload=protocol.StatRequest(path=path),
            )
        )
        ack = yield endpoint.recv()
        if ack.kind != protocol.MGR_STAT_ACK:
            raise ValueError(f"unexpected stat reply {ack.kind!r}")
        return ack.payload.handle

    def unlink(self, path: str) -> _t.Generator:
        """Process body: drop the path from the namespace; returns
        whether it existed.  (Stripe data reclamation is the iods'
        concern; see PVFSShell.rm for the storage side.)"""
        yield from self.node.compute(self.node.costs.syscall_s)
        endpoint = yield from self._mgr_endpoint(self._mgr_shard(path))
        yield endpoint.send(
            Message(
                kind=protocol.MGR_UNLINK,
                size_bytes=protocol.OPEN_REQ_BYTES,
                payload=protocol.UnlinkRequest(path=path),
            )
        )
        ack = yield endpoint.recv()
        if ack.kind != protocol.MGR_UNLINK_ACK:
            raise ValueError(f"unexpected unlink reply {ack.kind!r}")
        return ack.payload.existed

    def listdir(self) -> _t.Generator:
        """Process body: every path in the namespace.

        With a sharded mgr each shard owns a namespace partition, so
        the listing fans out to every shard (in shard order — the
        deterministic schedule requirement) and merges the sorted
        partials.
        """
        yield from self.node.compute(self.node.costs.syscall_s)
        paths: list[str] = []
        for shard in range(len(self.mgr_placements)):
            endpoint = yield from self._mgr_endpoint(shard)
            yield endpoint.send(
                Message(
                    kind=protocol.MGR_LIST,
                    size_bytes=protocol.OPEN_REQ_BYTES,
                    payload=None,
                )
            )
            ack = yield endpoint.recv()
            if ack.kind != protocol.MGR_LIST_ACK:
                raise ValueError(f"unexpected list reply {ack.kind!r}")
            paths.extend(ack.payload.paths)
        return sorted(paths)

    def read(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        want_data: bool = False,
    ) -> _t.Generator:
        """Process body: read; returns bytes when ``want_data``.

        Routed through the cache module when the node has one.
        """
        cache = self._cache
        start = self.env.now
        self._trace(handle.file_id, offset, nbytes, "read")
        yield from self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            result = yield from cache.read(handle, offset, nbytes, want_data)
        else:
            result = yield from self._raw_read(handle, offset, nbytes, want_data)
        if self.record_metrics:
            self.metrics.record("client.read_latency", self.env.now - start)
            self.metrics.inc("client.reads")
            self.metrics.inc("client.read_bytes", nbytes)
        return result

    def write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None = None,
    ) -> _t.Generator:
        """Process body: buffered write (default, non-coherent path)."""
        if data is not None and len(data) != nbytes:
            raise ValueError(f"data length {len(data)} != nbytes {nbytes}")
        cache = self._cache
        start = self.env.now
        self._trace(handle.file_id, offset, nbytes, "write")
        yield from self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            yield from cache.write(handle, offset, nbytes, data)
        else:
            yield from self._raw_write(handle, offset, nbytes, data, sync=False)
        if self.record_metrics:
            self.metrics.record("client.write_latency", self.env.now - start)
            self.metrics.inc("client.writes")
            self.metrics.inc("client.write_bytes", nbytes)

    def sync_write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None = None,
    ) -> _t.Generator:
        """Process body: coherent write — propagates to the iod and
        invalidates every remote cache holding a written block."""
        if data is not None and len(data) != nbytes:
            raise ValueError(f"data length {len(data)} != nbytes {nbytes}")
        cache = self._cache
        start = self.env.now
        self._trace(handle.file_id, offset, nbytes, "sync_write")
        yield from self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            yield from cache.sync_write(handle, offset, nbytes, data)
        else:
            yield from self._raw_write(handle, offset, nbytes, data, sync=True)
        if self.record_metrics:
            self.metrics.record("client.sync_write_latency", self.env.now - start)
            self.metrics.inc("client.sync_writes")

    # -- list (noncontiguous) I/O ---------------------------------------------
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
        ranges = self._check_ranges(ranges)
        cache = self._cache
        start = self.env.now
        self._trace_ranges(handle.file_id, ranges, "read")
        yield from self.node.compute(self.node.costs.syscall_s)
        parts: list[bytes | None]
        if cache is not None:
            parts = []
            for offset, nbytes in ranges:
                part = yield from cache.read(handle, offset, nbytes, want_data)
                parts.append(part)
        else:
            parts = yield from self._raw_readv(handle, ranges, want_data)
        if self.record_metrics:
            self.metrics.record("client.read_latency", self.env.now - start)
            self.metrics.inc("client.reads")
            self.metrics.inc("client.list_reads")
            self.metrics.inc(
                "client.read_bytes", sum(n for _, n in ranges)
            )
        return parts if want_data else None

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
        ranges = self._check_ranges(ranges)
        if data is not None:
            if len(data) != len(ranges):
                raise ValueError(
                    f"need one chunk per range, got {len(data)} chunks "
                    f"for {len(ranges)} ranges"
                )
            for (_, nbytes), chunk in zip(ranges, data):
                if chunk is not None and len(chunk) != nbytes:
                    raise ValueError(
                        f"chunk length {len(chunk)} != nbytes {nbytes}"
                    )
        cache = self._cache
        start = self.env.now
        self._trace_ranges(
            handle.file_id, ranges, "sync_write" if sync else "write"
        )
        yield from self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            for i, (offset, nbytes) in enumerate(ranges):
                chunk = data[i] if data is not None else None
                if sync:
                    yield from cache.sync_write(handle, offset, nbytes, chunk)
                else:
                    yield from cache.write(handle, offset, nbytes, chunk)
        else:
            yield from self._raw_writev(handle, ranges, data, sync)
        if self.record_metrics:
            total = sum(n for _, n in ranges)
            self.metrics.inc("client.list_writes")
            if sync:
                self.metrics.record(
                    "client.sync_write_latency", self.env.now - start
                )
                self.metrics.inc("client.sync_writes")
            else:
                self.metrics.record(
                    "client.write_latency", self.env.now - start
                )
                self.metrics.inc("client.writes")
                self.metrics.inc("client.write_bytes", total)

    @staticmethod
    def _check_ranges(
        ranges: _t.Sequence[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        out = [(int(offset), int(nbytes)) for offset, nbytes in ranges]
        if not out:
            raise ValueError("need at least one range")
        for offset, nbytes in out:
            if offset < 0 or nbytes < 0:
                raise ValueError(f"bad range ({offset}, {nbytes})")
        return out

    # -- raw (no-cache) protocol -------------------------------------------------
    def _layout(self, handle: FileHandle) -> StripeLayout:
        return StripeLayout(handle.n_iods, handle.stripe_size)

    def _raw_read(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        want_data: bool,
    ) -> _t.Generator:
        layout = self._layout(handle)
        per_iod = layout.split(offset, nbytes)
        # Phase 1: issue every request before waiting on any response
        # (libpvfs aggregates per iod, then blasts all requests out).
        endpoints: list[tuple[_t.Any, list[protocol.Range]]] = []
        for idx, ranges in sorted(per_iod.items()):
            ranges = coalesce_ranges(ranges)
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = ReadRequest(
                file_id=handle.file_id,
                ranges=ranges,
                want_data=want_data,
                requester_node=self.node.name,
            )
            yield from self.node.compute(self.node.costs.syscall_s)
            endpoint.send(
                Message(
                    kind=protocol.IOD_READ,
                    size_bytes=req.wire_size(),
                    payload=req,
                )
            )
            endpoints.append((endpoint, ranges))
        # Phase 2: collect ack + data per iod (private conn => FIFO).
        buf = bytearray(nbytes) if want_data else None
        for endpoint, _ranges in endpoints:
            ack = yield endpoint.recv()
            if ack.kind != protocol.IOD_READ_ACK:
                raise ValueError(f"expected read ack, got {ack.kind!r}")
            data_msg = yield endpoint.recv()
            if data_msg.kind != protocol.IOD_DATA:
                raise ValueError(f"expected data, got {data_msg.kind!r}")
            payload: ReadData = data_msg.payload
            if buf is not None:
                for (roff, rlen), chunk in zip(payload.ranges, payload.chunks):
                    if chunk is not None:
                        buf[roff - offset : roff - offset + rlen] = chunk
        return bytes(buf) if buf is not None else None

    def _raw_write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None,
        sync: bool,
    ) -> _t.Generator:
        layout = self._layout(handle)
        per_iod = layout.split(offset, nbytes)
        kind = protocol.IOD_SYNC_WRITE if sync else protocol.IOD_WRITE
        ack_kind = protocol.IOD_SYNC_ACK if sync else protocol.IOD_WRITE_ACK
        endpoints = []
        for idx, ranges in sorted(per_iod.items()):
            ranges = coalesce_ranges(ranges)
            chunks: list[bytes | None] = [
                data[roff - offset : roff - offset + rlen]
                if data is not None
                else None
                for roff, rlen in ranges
            ]
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = WriteRequest(
                file_id=handle.file_id,
                ranges=ranges,
                chunks=chunks,
                sync=sync,
                requester_node=self.node.name,
            )
            yield from self.node.compute(self.node.costs.syscall_s)
            endpoint.send(
                Message(kind=kind, size_bytes=req.wire_size(), payload=req)
            )
            endpoints.append(endpoint)
        for endpoint in endpoints:
            ack = yield endpoint.recv()
            if ack.kind != ack_kind:
                raise ValueError(f"expected {ack_kind!r}, got {ack.kind!r}")

    def _raw_readv(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        want_data: bool,
    ) -> _t.Generator:
        """List read over the wire: ALL ranges aggregated into at most
        one request per iod (the noncontiguous-I/O win: n ranges cost
        one round trip per iod, not n)."""
        layout = self._layout(handle)
        per_iod: dict[int, list[protocol.Range]] = {}
        for offset, nbytes in ranges:
            for idx, rs in layout.split(offset, nbytes).items():
                per_iod.setdefault(idx, []).extend(rs)
        endpoints = []
        for idx, iod_ranges in sorted(per_iod.items()):
            iod_ranges = coalesce_ranges(iod_ranges)
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = ReadRequest(
                file_id=handle.file_id,
                ranges=iod_ranges,
                want_data=want_data,
                requester_node=self.node.name,
            )
            yield from self.node.compute(self.node.costs.syscall_s)
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

    def _raw_writev(
        self,
        handle: FileHandle,
        ranges: _t.Sequence[tuple[int, int]],
        data: _t.Sequence[bytes | None] | None,
        sync: bool,
    ) -> _t.Generator:
        """List write over the wire: one request per iod carrying
        every range (and chunk) that lands on it."""
        layout = self._layout(handle)
        per_iod: dict[
            int, list[tuple[protocol.Range, bytes | None]]
        ] = {}
        for i, (offset, nbytes) in enumerate(ranges):
            chunk = data[i] if data is not None else None
            for idx, rs in layout.split(offset, nbytes).items():
                for roff, rlen in rs:
                    piece = (
                        chunk[roff - offset : roff - offset + rlen]
                        if chunk is not None
                        else None
                    )
                    per_iod.setdefault(idx, []).append(((roff, rlen), piece))
        kind = protocol.IOD_SYNC_WRITE if sync else protocol.IOD_WRITE
        ack_kind = protocol.IOD_SYNC_ACK if sync else protocol.IOD_WRITE_ACK
        endpoints = []
        for idx, entries in sorted(per_iod.items()):
            entries.sort(key=lambda entry: entry[0])
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = WriteRequest(
                file_id=handle.file_id,
                ranges=[r for r, _ in entries],
                chunks=[c for _, c in entries],
                sync=sync,
                requester_node=self.node.name,
            )
            yield from self.node.compute(self.node.costs.syscall_s)
            endpoint.send(
                Message(kind=kind, size_bytes=req.wire_size(), payload=req)
            )
            endpoints.append(endpoint)
        for endpoint in endpoints:
            ack = yield endpoint.recv()
            if ack.kind != ack_kind:
                raise ValueError(f"expected {ack_kind!r}, got {ack.kind!r}")


def _as_strided(
    ranges: _t.Sequence[tuple[int, int]],
) -> tuple[int, int]:
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
