"""Two-phase collective I/O over libpvfs (the MPI-IO optimization).

The paper's related work section is dominated by MPI-IO and its
optimizations for "non-contiguous parallel accesses to shared data".
The canonical one is *two-phase I/O* (ROMIO): when each of ``p`` ranks
wants an interleaved slice of a shared region, letting every rank issue
its own scattered requests produces p x stripes small transfers; the
collective instead

1. partitions the aggregate region into ``p`` contiguous *file domains*,
   one per rank, each read/written with one large request, and
2. redistributes the data among ranks over the (fast) network.

This module implements that protocol on top of :class:`PVFSClient`, so
its costs and benefits compose with the kernel cache module underneath —
letting the repo answer a question the paper raises implicitly: does
collective I/O still help when a shared cache absorbs the small
requests?
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

from repro.net import Message
from repro.net.network import Delivery
from repro.pvfs.protocol import FileHandle
from repro.sim import Process, Store

#: Port used for the shuffle phase (rank-to-rank exchange).
SHUFFLE_PORT = 7100
SHUFFLE_MSG = "collective.shuffle"


@dataclasses.dataclass
class InterleavedAccess:
    """One rank's slice pattern of a shared region.

    Rank ``rank`` of ``n_ranks`` accesses ``item_bytes`` out of every
    ``n_ranks * item_bytes`` (a row/column-cyclic distribution), for
    ``items`` repetitions, starting at ``base``.
    """

    rank: int
    n_ranks: int
    item_bytes: int
    items: int
    base: int = 0

    def offsets(self) -> list[int]:
        """The rank's item offsets, lowest first."""
        stride = self.n_ranks * self.item_bytes
        return [
            self.base + i * stride + self.rank * self.item_bytes
            for i in range(self.items)
        ]

    @property
    def total_bytes(self) -> int:
        """Bytes this rank accesses."""
        return self.items * self.item_bytes

    @property
    def aggregate_bytes(self) -> int:
        """Bytes the whole collective covers."""
        return self.n_ranks * self.total_bytes


class CollectiveGroup:
    """One collective operation's communicator.

    Create one group per collective call; ranks join by index.  The
    group wires rank-to-rank mailboxes for the shuffle phase.
    """

    def __init__(self, cluster: "Cluster", nodes: _t.Sequence[str]) -> None:
        if not nodes:
            raise ValueError("collective group needs at least one rank")
        self.cluster = cluster
        self.nodes = list(nodes)
        self.n_ranks = len(nodes)
        self._mailboxes = [Store(cluster.env) for _ in nodes]
        self.clients = [cluster.client(node) for node in nodes]

    # -- shuffle primitives ---------------------------------------------------
    def _exchange(
        self, sender: int, receiver: int, nbytes: int
    ) -> _t.Generator:
        """Ship ``nbytes`` of shuffle data from one rank to another.

        Same-node ranks exchange through memory; remote ranks pay the
        fabric like any other transfer.
        """
        src = self.nodes[sender]
        dst = self.nodes[receiver]
        message = Message(
            kind=SHUFFLE_MSG, size_bytes=nbytes, src=src, dst=dst
        )
        message.stamp(self.cluster.env)
        # Started like the process it replaced, under that process's
        # name: the framed path even on idle ports.
        yield Delivery(
            self.cluster.network, message, self._mailboxes[receiver],
            ident="_transmit",
        ).start()

    def _collect(self, rank: int, n_messages: int) -> _t.Generator:
        """Receive ``n_messages`` shuffle messages at ``rank``."""
        for _ in range(n_messages):
            yield self._mailboxes[rank].get()

    # -- the collective calls -----------------------------------------------------
    def read_interleaved(
        self, handle: FileHandle, access: InterleavedAccess
    ) -> _t.Generator:
        """Process body for one rank's collective interleaved read.

        Phase 1: the rank reads its contiguous *file domain* (an equal
        ``aggregate / p`` share).  Phase 2: it sends every other rank
        the items that landed in its domain and receives its own items
        from the other domains.
        """
        rank = access.rank
        domain_bytes = access.aggregate_bytes // self.n_ranks
        domain_start = access.base + rank * domain_bytes
        yield from self.clients[rank].read(
            handle, domain_start, domain_bytes
        )
        # Phase 2: all-to-all. Each domain holds items/p of each rank's
        # items (cyclic layout), so each pairwise exchange moves
        # total_bytes / p bytes.
        slice_bytes = max(1, access.total_bytes // self.n_ranks)
        for peer in range(self.n_ranks):
            if peer != rank:
                yield from self._exchange(rank, peer, slice_bytes)
        yield from self._collect(rank, self.n_ranks - 1)
        self.cluster.metrics.inc("collective.reads")

    def read_independent(
        self, handle: FileHandle, access: InterleavedAccess
    ) -> _t.Generator:
        """The baseline: the rank reads its own scattered items."""
        for offset in access.offsets():
            yield from self.clients[access.rank].read(
                handle, offset, access.item_bytes
            )
        self.cluster.metrics.inc("collective.independent_reads")

    def write_interleaved(
        self, handle: FileHandle, access: InterleavedAccess
    ) -> _t.Generator:
        """Two-phase collective write: shuffle first, then each rank
        writes its contiguous file domain with one large request."""
        rank = access.rank
        slice_bytes = max(1, access.total_bytes // self.n_ranks)
        for peer in range(self.n_ranks):
            if peer != rank:
                yield from self._exchange(rank, peer, slice_bytes)
        yield from self._collect(rank, self.n_ranks - 1)
        domain_bytes = access.aggregate_bytes // self.n_ranks
        domain_start = access.base + rank * domain_bytes
        yield from self.clients[rank].write(
            handle, domain_start, domain_bytes, None
        )
        self.cluster.metrics.inc("collective.writes")

    def write_independent(
        self, handle: FileHandle, access: InterleavedAccess
    ) -> _t.Generator:
        """The baseline: the rank writes its own scattered items."""
        for offset in access.offsets():
            yield from self.clients[access.rank].write(
                handle, offset, access.item_bytes, None
            )
        self.cluster.metrics.inc("collective.independent_writes")

    def spawn_all(
        self,
        handle: FileHandle,
        accesses: _t.Sequence[InterleavedAccess],
        collective: bool,
        mode: str = "read",
    ) -> list[Process]:
        """Start every rank's operation; returns the processes."""
        if mode == "read":
            method = (
                self.read_interleaved if collective else self.read_independent
            )
        elif mode == "write":
            method = (
                self.write_interleaved
                if collective
                else self.write_independent
            )
        else:
            raise ValueError(f"mode must be read/write, got {mode!r}")
        return [
            self.cluster.env.process(
                method(handle, access),
                name=f"collective-r{access.rank}",
            )
            for access in accesses
        ]


def run_interleaved_read(
    cluster: "Cluster",
    nodes: _t.Sequence[str],
    item_bytes: int,
    items_per_rank: int,
    collective: bool,
    path: str = "/collective/data",
    mode: str = "read",
) -> float:
    """Convenience: all ranks access an interleaved region; returns
    the simulated wall time of the slowest rank."""
    group = CollectiveGroup(cluster, nodes)
    env = cluster.env
    opened: dict[str, FileHandle] = {}

    def opener(env):
        opened["handle"] = yield from group.clients[0].open(path)

    proc = env.process(opener(env))
    env.run(until=proc)
    accesses = [
        InterleavedAccess(
            rank=r,
            n_ranks=group.n_ranks,
            item_bytes=item_bytes,
            items=items_per_rank,
        )
        for r in range(group.n_ranks)
    ]
    start = env.now
    procs = group.spawn_all(opened["handle"], accesses, collective, mode=mode)
    env.run(until=env.all_of(procs))
    return env.now - start
