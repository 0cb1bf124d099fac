"""A cluster node: CPU, NIC/socket API, and optional storage stack."""

from __future__ import annotations

import typing as _t

from repro.cluster.config import ClusterConfig, CostModel
from repro.disk import DiskModel, LocalFileStore, PageCache
from repro.disk.writeback import WritebackDaemon
from repro.net import Network, SocketAPI
from repro.sim import Environment, Timeout

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cache.module import CacheModule


class Node:
    """One box of the cluster.

    Every node has a CPU (one FIFO server — processes time-share it in
    call order, which is how the multiprogramming cost of Section 4.2.4
    arises) and a socket API.  Nodes hosting an iod additionally carry
    the disk stack; compute nodes may carry the kernel cache module.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        network: Network,
        costs: CostModel,
        config: ClusterConfig | None = None,
        with_disk: bool = False,
    ) -> None:
        self.env = env
        self.name = name
        self.costs = costs
        self.config = config
        #: Instant the CPU finishes everything granted so far.  Every
        #: hold is a fixed, non-preemptive duration served in call
        #: order, so this one float *is* the FIFO queue (DESIGN.md §14).
        self.cpu_free_at = 0.0
        #: Completion event of the last slice granted.  Busy means it
        #: has not been processed yet.
        self._cpu_tail: Timeout | None = None
        self.sockets = SocketAPI(network, name)
        self.disk: DiskModel | None = None
        self.filestore: LocalFileStore | None = None
        self.pagecache: PageCache | None = None
        self.writeback: WritebackDaemon | None = None
        #: Installed by the cluster builder when caching is enabled.
        self.cache_module: "CacheModule | None" = None
        if with_disk:
            self.attach_disk()

    def attach_disk(self) -> None:
        """Add the iod storage stack (idempotent)."""
        if self.disk is not None:
            return
        cfg = self.config
        block_size = cfg.cache.block_size if cfg else 4096
        pagecache_blocks = cfg.pagecache_blocks if cfg else 16384
        self.disk = DiskModel(
            self.env,
            avg_seek_s=self.costs.avg_seek_s,
            half_rotation_s=self.costs.half_rotation_s,
            transfer_bytes_per_s=self.costs.disk_bytes_per_s,
        )
        self.filestore = LocalFileStore(block_size=block_size)
        self.pagecache = PageCache(capacity_blocks=pagecache_blocks)
        self.writeback = WritebackDaemon(self.env, self.disk, node=self)
        self.writeback.start()

    def compute(self, seconds: float) -> _t.Generator:
        """Process body: occupy this node's CPU for ``seconds``.

        Queueing behind other runnable work on the node is how CPU
        time-sharing costs appear.  The slice is reserved at call time:
        a process killed while it waits leaves its slice on the CPU
        (nothing in the tree preempts a hold, so nothing reclaims one).
        """
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        if seconds == 0:
            return
        env = self.env
        tail = self._cpu_tail
        # Inlined cpu_idle: this runs for every cache lookup and copy.
        if tail is None or tail.callbacks is None:
            start = env._now
        else:
            start = self.cpu_free_at
        self.cpu_free_at = done = start + seconds
        # Queued behind a running slice, the completion goes on the
        # event queue when that slice completes, which is when a
        # hand-over would have drawn its tie-break sequence number.
        self._cpu_tail = event = env.timeout_at(done, after=tail)
        yield event

    @property
    def cpu_idle(self) -> bool:
        """True when nothing granted is still running (or queued)."""
        tail = self._cpu_tail
        return tail is None or tail.callbacks is None

    def __repr__(self) -> str:
        roles = []
        if self.disk is not None:
            roles.append("iod-capable")
        if self.cache_module is not None:
            roles.append("cached")
        return f"<Node {self.name} {' '.join(roles) or 'compute'}>"
