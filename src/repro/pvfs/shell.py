"""Shell-style utilities over the simulated PVFS namespace.

PVFS "provides seamless transparent access to several existing
utilities on normal file systems" (paper, Section 3.1).  This module
is the equivalent convenience layer for the simulation: synchronous
helpers to import/export data, list the namespace, and measure
transfer rates (`dd`-style), usable from plain Python without writing
generator processes.

Each call spawns a process on the cluster's environment and runs the
simulation until it completes — fine for setup/inspection, but note
that it advances shared simulated time.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster



@dataclasses.dataclass
class FileStat:
    path: str
    file_id: int
    #: Highest written byte + 1 per the iods' stores (sparse-aware).
    apparent_size: int
    #: Blocks actually present, per iod node.
    blocks_per_iod: dict[str, int]
    stripe_size: int

    @property
    def allocated_bytes(self) -> int:
        """Bytes physically present across the iods."""
        return sum(self.blocks_per_iod.values()) * 4096


class PVFSShell:
    """Synchronous utility interface bound to one cluster node."""

    def __init__(
        self, cluster: "Cluster", node: str | None = None, use_cache: bool = False
    ) -> None:
        self.cluster = cluster
        self.node = node if node is not None else cluster.compute_nodes[0]
        #: Utilities default to the raw path (they are administrative,
        #: not part of the measured workload).
        self.client = cluster.client(self.node, use_cache=use_cache)
        self.client.record_metrics = False

    # -- internals -----------------------------------------------------------
    def _run(self, generator) -> _t.Any:
        proc = self.cluster.env.process(generator)
        return self.cluster.env.run(until=proc)

    # -- utilities -------------------------------------------------------------
    def cp_in(self, path: str, data: bytes) -> None:
        """Import host bytes into the simulated file system."""

        def gen(env):
            handle = yield from self.client.open(path)
            yield from self.client.write(handle, 0, len(data), data)

        self._run(gen(self.cluster.env))

    def cp_out(self, path: str, nbytes: int | None = None) -> bytes:
        """Export a file's contents back to host bytes."""

        def gen(env):
            handle = yield from self.client.open(path)
            size = (
                nbytes
                if nbytes is not None
                else self._apparent_size(handle.file_id)
            )
            if size == 0:
                return b""
            data = yield from self.client.read(handle, 0, size, want_data=True)
            return data

        return self._run(gen(self.cluster.env))

    def ls(self) -> list[str]:
        """Paths known to the metadata server."""
        return sorted(self.cluster.mgr._by_path)

    def exists(self, path: str) -> bool:
        """True if the path is known to the mgr."""
        return self.cluster.mgr.lookup(path) is not None

    def stat(self, path: str) -> FileStat:
        """Physical layout of a file across the iods."""
        handle = self.cluster.mgr.lookup(path)
        if handle is None:
            raise FileNotFoundError(path)
        blocks_per_iod: dict[str, int] = {}
        for iod in self.cluster.iods:
            store = iod.node.filestore
            assert store is not None
            blocks_per_iod[iod.node.name] = len(
                store.blocks_of(handle.file_id)
            )
        return FileStat(
            path=path,
            file_id=handle.file_id,
            apparent_size=self._apparent_size(handle.file_id),
            blocks_per_iod=blocks_per_iod,
            stripe_size=handle.stripe_size,
        )

    def _apparent_size(self, file_id: int) -> int:
        top = 0
        for iod in self.cluster.iods:
            store = iod.node.filestore
            assert store is not None
            blocks = store.blocks_of(file_id)
            if blocks:
                # map the iod's highest local block back to the global
                # coordinate: blocks are stored under global block
                # numbers already.
                top = max(top, (blocks[-1] + 1) * store.block_size)
        return top

    def rm(self, path: str) -> int:
        """Drop a file's blocks from every iod; returns blocks freed.

        The iods' page-cache entries and sharer-directory state for the
        file go with them.  (Metadata entry is retained — PVFS 1.x
        unlink semantics with open handles are out of scope.)
        """
        handle = self.cluster.mgr.lookup(path)
        if handle is None:
            raise FileNotFoundError(path)
        freed = 0
        for iod in self.cluster.iods:
            store = iod.node.filestore
            assert store is not None
            blocks = store.blocks_of(handle.file_id)
            freed += store.delete_file(handle.file_id)
            pagecache = iod.node.pagecache
            assert pagecache is not None
            for block in blocks:
                pagecache.invalidate(handle.file_id, block)
            iod.directory.forget(handle.file_id)
        return freed

    def dd(
        self,
        path: str,
        block_size: int,
        count: int,
        mode: str = "read",
        use_cache: bool = True,
    ) -> dict[str, float]:
        """`dd`-style sequential transfer benchmark; returns stats."""
        if mode not in ("read", "write"):
            raise ValueError(f"dd mode must be read/write, got {mode!r}")
        client = self.cluster.client(self.node, use_cache=use_cache)
        client.record_metrics = False
        env = self.cluster.env

        def gen(env):
            handle = yield from client.open(path)
            start = env.now
            for i in range(count):
                if mode == "read":
                    yield from client.read(handle, i * block_size, block_size)
                else:
                    yield from client.write(
                        handle, i * block_size, block_size, None
                    )
            elapsed = env.now - start
            return elapsed

        elapsed = self._run(gen(env))
        total = block_size * count
        return {
            "bytes": float(total),
            "seconds": elapsed,
            "bytes_per_second": total / elapsed if elapsed else float("inf"),
        }
