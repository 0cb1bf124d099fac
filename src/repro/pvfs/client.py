"""libpvfs: the client library linked into each application process.

Each process owns private connections to the mgr and to every iod, so
request/response matching is FIFO per connection (the paper's libpvfs
does the same).  When the node carries a cache module, data calls are
routed through it — transparently, exactly like the paper's in-kernel
socket interception: application code is identical in both modes.
"""

from __future__ import annotations

import typing as _t
from operator import itemgetter

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
        self,
        file_id: int,
        offset: int,
        nbytes: int,
        op: str,
        stride: int = 0,
        count: int = 1,
    ) -> None:
        """Report one data call to the instrumentation bus as a
        ``client_io`` record, when a subscriber takes that kind.

        ``count > 1`` is a regular strided request: one record carries
        the whole shape.  Reporting is synchronous Python off the event
        schedule, and it is gated on ``record_metrics`` so warmup
        clients stay out of recorded traces.
        """
        bus = self.env.svc_bus
        if bus is not None and "client_io" in bus.heard and self.record_metrics:
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

    # -- API -------------------------------------------------------------------
    def open(self, path: str) -> _t.Generator:
        """Process body: open (or create) ``path``; returns FileHandle.

        Metadata is never cached (paper, Section 3): every open talks
        to the mgr.
        """
        yield self.node.compute(self.node.costs.syscall_s)
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
        yield self.node.compute(self.node.costs.syscall_s)
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
        whether it existed.  The iods keep the file's stripe data."""
        yield self.node.compute(self.node.costs.syscall_s)
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
        yield self.node.compute(self.node.costs.syscall_s)
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
        cache = self.node.cache_module if self.use_cache else None
        env = self.env
        start = env._now
        self._trace(handle.file_id, offset, nbytes, "read")
        yield self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            result = yield from cache.read(handle, offset, nbytes, want_data)
        else:
            parts = yield from self._raw_read(
                handle, [(offset, nbytes)], want_data
            )
            result = parts[0]
        if self.record_metrics:
            # Metrics.record/inc inlined: every read ends here.
            metrics = self.metrics
            metrics.series["client.read_latency"].append(env._now - start)
            counters = metrics.counters
            counters["client.reads"] += 1
            counters["client.read_bytes"] += nbytes
        return result

    def write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None = None,
    ) -> _t.Generator:
        """Process body: buffered write (default, non-coherent path)."""
        return self._write(handle, offset, nbytes, data, False)

    def sync_write(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        data: bytes | None = None,
    ) -> _t.Generator:
        """Process body: coherent write — propagates to the iod and
        invalidates every remote cache holding a written block."""
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
        if data is not None and len(data) != nbytes:
            raise ValueError(f"data length {len(data)} != nbytes {nbytes}")
        cache = self.node.cache_module if self.use_cache else None
        env = self.env
        start = env._now
        self._trace(
            handle.file_id, offset, nbytes, "sync_write" if sync else "write"
        )
        yield self.node.compute(self.node.costs.syscall_s)
        if cache is None:
            yield from self._raw_write(
                handle,
                [(offset, nbytes)],
                None if data is None else [data],
                sync,
            )
        elif sync:
            yield from cache.sync_write(handle, offset, nbytes, data)
        else:
            yield from cache.write(handle, offset, nbytes, data)
        if self.record_metrics:
            metrics = self.metrics
            counters = metrics.counters
            if sync:
                metrics.series["client.sync_write_latency"].append(
                    env._now - start
                )
                counters["client.sync_writes"] += 1
            else:
                metrics.series["client.write_latency"].append(env._now - start)
                counters["client.writes"] += 1
                counters["client.write_bytes"] += nbytes

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
        cache = self.node.cache_module if self.use_cache else None
        start = self.env.now
        self._trace_ranges(handle.file_id, ranges, "read")
        yield self.node.compute(self.node.costs.syscall_s)
        parts: list[bytes | None]
        if cache is not None:
            parts = []
            for offset, nbytes in ranges:
                part = yield from cache.read(handle, offset, nbytes, want_data)
                parts.append(part)
        else:
            parts = yield from self._raw_read(handle, ranges, want_data)
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
        cache = self.node.cache_module if self.use_cache else None
        start = self.env.now
        self._trace_ranges(
            handle.file_id, ranges, "sync_write" if sync else "write"
        )
        yield self.node.compute(self.node.costs.syscall_s)
        if cache is not None:
            for i, (offset, nbytes) in enumerate(ranges):
                chunk = data[i] if data is not None else None
                if sync:
                    yield from cache.sync_write(handle, offset, nbytes, chunk)
                else:
                    yield from cache.write(handle, offset, nbytes, chunk)
        else:
            yield from self._raw_write(handle, ranges, data, sync)
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
        ranges: _t.Sequence[tuple[int, int]],
        want_data: bool,
    ) -> _t.Generator:
        """Read over the wire; returns one part per range (``None``
        each unless ``want_data``).

        Every range is aggregated into at most one request per iod (the
        noncontiguous-I/O win: n ranges cost one round trip per iod,
        not n); a contiguous read is the one-range list.  libpvfs
        issues every request before it waits on any response.
        """
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
        iod carrying every range, and its piece of the range's chunk,
        that lands on it.  A contiguous write is the one-range list.
        """
        layout = self._layout(handle)
        per_iod: dict[
            int, list[tuple[protocol.Range, bytes | None]]
        ] = {}
        for i, (offset, nbytes) in enumerate(ranges):
            chunk = chunks[i] if chunks is not None else None
            for idx, rs in layout.split(offset, nbytes).items():
                for roff, rlen in rs:
                    piece = (
                        chunk[roff - offset : roff - offset + rlen]
                        if chunk is not None
                        else None
                    )
                    per_iod.setdefault(idx, []).append(((roff, rlen), piece))
        module = self.node.cache_module
        if sync and module is not None:
            # This node's cache module writes back its dirty copies of
            # these bytes first (CacheModule.write_back), so the newer
            # raw bytes land at the iod last.
            yield from module.write_back(handle.file_id, ranges)
        kind = protocol.IOD_SYNC_WRITE if sync else protocol.IOD_WRITE
        ack_kind = protocol.IOD_SYNC_ACK if sync else protocol.IOD_WRITE_ACK
        endpoints = []
        for idx, entries in sorted(per_iod.items()):
            entries.sort(key=itemgetter(0))
            endpoint = yield from self._iod_endpoint(handle.iod_nodes[idx])
            req = WriteRequest(
                file_id=handle.file_id,
                ranges=[r for r, _ in entries],
                chunks=[c for _, c in entries],
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
