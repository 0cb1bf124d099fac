"""The check pass: real payloads against a flat in-memory reference.

The timed pass runs size-only, as the figure sweeps do, so it cannot
tell right bytes from wrong ones.  This pass replays the first
:data:`CHECK_EVENTS` events of the timed trace on a fresh cluster with
``want_data=True`` and payload = f(path, block, version), and holds
every read against the paper's coherence contract:

* a node's reads see that node's own completed writes;
* once a ``sync_write`` has completed, no node returns older bytes;
* after a plain write, *other* nodes may see old or new.

The reference keeps, per 4 KB block, the history of writes with their
issue and completion times; a read may return any version not
*superseded* by a write the reader is guaranteed to see.  After the
replay the caches are drained and every written block is read back
around the cache: it must hold a last-written version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

from bench import driver
from bench.workloads import Workload, cluster_config
from repro.cluster import Cluster
from repro.disk.filesystem import blocks_spanned
from repro.workload.trace import Trace

CHECK_EVENTS = 512

#: Largest single pre-load / read-back request.
_CHUNK_BLOCKS = 256

Range = tuple[int, int]


@dataclasses.dataclass
class _Write:
    version: int
    node: str
    #: Visible everywhere once complete: a ``sync_write``, or a write
    #: that went around the cache straight to the iods.
    coherent: bool
    issued: float
    done: float | None = None


class Reference:
    """Flat model of what every block may legally read as."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self.history: dict[tuple[str, int], list[_Write]] = {}
        #: Human-readable account of the first few wrong reads.
        self.violations: list[str] = []

    def payload(self, path: str, block_no: int, version: int) -> bytes:
        """The bytes version ``version`` of a block holds (0 = never
        written = zeros)."""
        if version == 0:
            return bytes(self.block_size)
        digest = hashlib.blake2b(
            f"{path}|{block_no}|{version}".encode(), digest_size=32
        ).digest()
        return digest * (self.block_size // 32)

    def _blocks(self, ranges: _t.Sequence[Range]) -> list[list[int]]:
        out = []
        for offset, nbytes in ranges:
            if offset % self.block_size or nbytes % self.block_size:
                raise ValueError(
                    f"check pass needs block-aligned ops, got ({offset}, {nbytes})"
                )
            out.append(list(blocks_spanned(offset, nbytes, self.block_size)))
        return out

    # -- writes ------------------------------------------------------------
    def begin_write(
        self,
        path: str,
        ranges: _t.Sequence[Range],
        node: str,
        coherent: bool,
        now: float,
    ) -> tuple[list[bytes], list[_Write]]:
        """Register a write at issue; returns one payload per range."""
        chunks, writes = [], []
        for block_nos in self._blocks(ranges):
            parts = []
            for block_no in block_nos:
                history = self.history.setdefault((path, block_no), [])
                write = _Write(len(history) + 1, node, coherent, now)
                history.append(write)
                writes.append(write)
                parts.append(self.payload(path, block_no, write.version))
            chunks.append(b"".join(parts))
        return chunks, writes

    def end_write(self, writes: _t.Iterable[_Write], now: float) -> None:
        for write in writes:
            write.done = now

    # -- reads -------------------------------------------------------------
    def allowed(
        self, path: str, block_no: int, node: str, start: float, end: float
    ) -> list[int]:
        """Versions a read on ``node`` over [start, end] may return."""
        history = self.history.get((path, block_no), [])
        # Writes this reader is guaranteed to see: complete before the
        # read was issued, and either its own node's or coherent.
        floor = max(
            (
                w.issued
                for w in history
                if w.done is not None
                and w.done <= start
                and (w.coherent or w.node == node)
            ),
            default=None,
        )
        versions = [] if floor is not None else [0]
        for w in history:
            if w.issued > end:
                continue
            if floor is not None and w.done is not None and w.done < floor:
                continue  # superseded by a write the reader must see
            versions.append(w.version)
        return versions

    def final(self, path: str, block_no: int) -> list[int]:
        """Versions a block may hold once everything is flushed."""
        history = self.history[(path, block_no)]
        last_issue = max(w.issued for w in history)
        return [
            w.version for w in history
            if w.done is None or w.done >= last_issue
        ]

    def _identify(self, path: str, block_no: int, got: bytes) -> str:
        for w in self.history.get((path, block_no), []):
            if got == self.payload(path, block_no, w.version):
                return f"version {w.version}"
        return "zeros" if not any(got) else "bytes of no version"

    def compare(
        self, path: str, block_no: int, got: bytes, versions: list[int], who: str
    ) -> bool:
        if any(got == self.payload(path, block_no, v) for v in versions):
            return True
        if len(self.violations) < 8:
            self.violations.append(
                f"{who} read {path} block {block_no}: got "
                f"{self._identify(path, block_no, got)}, allowed versions "
                f"{versions}"
            )
        return False

    def check_read(
        self,
        path: str,
        ranges: _t.Sequence[Range],
        node: str,
        start: float,
        end: float,
        parts: _t.Sequence[bytes | None],
    ) -> int:
        """How many blocks of a read returned bytes no rule allows."""
        wrong = 0
        bs = self.block_size
        for block_nos, part in zip(self._blocks(ranges), parts):
            for i, block_no in enumerate(block_nos):
                got = b"" if part is None else part[i * bs : (i + 1) * bs]
                versions = self.allowed(path, block_no, node, start, end)
                if not self.compare(path, block_no, got, versions, node):
                    wrong += 1
        return wrong


def _runs(block_nos: _t.Iterable[int]) -> _t.Iterator[tuple[int, int]]:
    """Consecutive block numbers as (first, count), chunk-bounded."""
    first = prev = None
    for block_no in sorted(set(block_nos)):
        if first is not None and (
            block_no != prev + 1 or block_no - first >= _CHUNK_BLOCKS
        ):
            yield first, prev - first + 1
            first = None
        if first is None:
            first = block_no
        prev = block_no
    if first is not None:
        yield first, prev - first + 1


def run_check(workload: Workload, head: Trace) -> dict[str, _t.Any]:
    """Replay ``head`` with payloads; count reads no rule allows."""
    cluster = Cluster(cluster_config(workload))
    env = cluster.env
    bs = cluster.config.cache.block_size
    reference = Reference(bs)
    raw = cluster.client(cluster.compute_nodes[0], use_cache=False)
    raw.record_metrics = False

    #: Blocks the head reads / writes, per path.
    touched: dict[bool, dict[str, set[int]]] = {True: {}, False: {}}
    for event in head.events:
        for offset, nbytes in event.ranges:
            touched[event.op == "read"].setdefault(event.path, set()).update(
                blocks_spanned(offset, nbytes, bs)
            )

    def preload() -> _t.Generator:
        # Reads of never-written files would compare zeros with zeros;
        # give every block a read will touch a version first, written
        # around the cache so it is visible everywhere.
        for path, block_nos in sorted(touched[True].items()):
            handle = yield from raw.open(path)
            for first, count in _runs(block_nos):
                ranges = [(first * bs, count * bs)]
                chunks, writes = reference.begin_write(
                    path, ranges, raw.node.name, True, env.now
                )
                yield from raw.write(handle, *ranges[0], chunks[0])
                reference.end_write(writes, env.now)

    env.run(until=env.process(preload(), name="check-preload"))
    result = driver.run(cluster, head, reference=reference)

    wrong_final = 0

    def read_back() -> _t.Generator:
        nonlocal wrong_final
        yield from cluster.drain_caches()
        for path, block_nos in sorted(touched[False].items()):
            handle = yield from raw.open(path)
            for first, count in _runs(block_nos):
                data = yield from raw.read(
                    handle, first * bs, count * bs, want_data=True
                )
                for i in range(count):
                    ok = reference.compare(
                        path, first + i, data[i * bs : (i + 1) * bs],
                        reference.final(path, first + i), "read-back",
                    )
                    wrong_final += not ok

    env.run(until=env.process(read_back(), name="check-readback"))
    return {
        "attempted": result.attempted,
        "failed": result.failed + wrong_final,
        "read_back_blocks": sum(map(len, touched[False].values())),
        "violations": reference.violations + result.log.errors
        + ([result.stalled] if result.stalled else []),
    }
