"""Cluster-wide cooperative cache lookup (the paper's ongoing work).

Paper, Section 5: "We are extending the current system to also include
a global cache that can be shared by all the nodes (the current cache
is shared only by the application processes at a given node) before
disk operations are really invoked."

Design: every block has a *home* cache node (hash of its key over the
caching nodes).  On a local miss, the module first asks the home
node's cache; only if the home also misses does the request go to the
iod.  A remote cache hit costs one LAN round trip plus the peer's
lookup/copy — far cheaper than an iod disk miss, comparable to an iod
page-cache hit, so the win shows when iod page caches are small or
cold (large datasets), which is exactly the regime the paper's
motivation describes.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cache.block import BlockKey, BlockState
from repro.net import Message
from repro.pvfs import protocol
from repro.svc import Service, handles

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cache.module import CacheModule

GCACHE_PORT = 7003


@dataclasses.dataclass
class PeerLookupRequest:
    file_id: int
    block_nos: list[int]
    want_data: bool

    def wire_size(self) -> int:
        """Bytes this request occupies on the wire."""
        return protocol.BLOCK_ID_BYTES * max(1, len(self.block_nos))


@dataclasses.dataclass
class PeerLookupReply:
    file_id: int
    #: block_no -> bytes | None for blocks the peer held (valid,
    #: whole-block); missing blocks are simply absent.
    hits: dict[int, bytes | None]

    def wire_size(self) -> int:
        """Bytes this reply occupies on the wire."""
        return sum(
            protocol.BLOCK_ID_BYTES + (len(d) if d is not None else 4096)
            for d in self.hits.values()
        ) or protocol.ACK_BYTES


class GlobalCacheDirectory:
    """Static home assignment: hash *extents* over the peer set.

    Homing individual 4 KB blocks would shred a multi-block request
    into alternating-home fragments — and fragments that fall through
    to the iods become single-block disk reads, each paying a seek.
    Homing contiguous extents (default 16 blocks = one 64 KB stripe
    unit) keeps a typical request on one home while still spreading a
    file across the peer set.
    """

    def __init__(
        self, cache_nodes: _t.Sequence[str], extent_blocks: int = 16
    ) -> None:
        if not cache_nodes:
            raise ValueError("global cache needs at least one caching node")
        if extent_blocks < 1:
            raise ValueError(f"extent_blocks must be >= 1, got {extent_blocks}")
        self.cache_nodes = tuple(sorted(cache_nodes))
        self.extent_blocks = extent_blocks

    def home_of(self, key: BlockKey) -> str:
        """The cache node responsible for ``key``."""
        file_id, block_no = key
        extent = block_no // self.extent_blocks
        return self.cache_nodes[
            (file_id * 0x9E3779B1 + extent) % len(self.cache_nodes)
        ]


class GlobalCacheClient(Service):
    """The peer-lookup side car attached to one CacheModule."""

    def __init__(
        self,
        module: "CacheModule",
        directory: GlobalCacheDirectory,
        port: int = GCACHE_PORT,
    ) -> None:
        super().__init__(
            module.env, f"gcache-{module.node.name}", node=module.node
        )
        self.module = module
        self.directory = directory
        self.port = port
        self._peer_pool = self.pool(port, label=self.name)

    # -- server side -------------------------------------------------------
    def _on_start(self) -> None:
        """Serve peer lookups on this node."""
        self.serve(self.port)

    @handles(protocol.GCACHE_LOOKUP)
    def _handle_lookup(self, msg: Message, endpoint) -> _t.Generator:
        manager = self.module.manager
        metrics = self.module.metrics
        costs = self.module.node.costs
        req: PeerLookupRequest = msg.payload
        yield self.module.node.compute(
            costs.cache_lookup_s * max(1, len(req.block_nos))
        )
        hits: dict[int, bytes | None] = {}
        for block_no in req.block_nos:
            block = manager.lookup((req.file_id, block_no))
            if (
                block is not None
                and block.state in (BlockState.CLEAN, BlockState.DIRTY)
                and block.valid.covers(0, block.block_size)
            ):
                hits[block_no] = (
                    block.read_slice(0, block.block_size)
                    if req.want_data
                    else None
                )
        if hits:
            yield self.module.node.compute(
                costs.cache_copy_block_s * len(hits)
            )
        metrics.inc("gcache.peer_lookups_served", len(req.block_nos))
        metrics.inc("gcache.peer_hits_served", len(hits))
        reply = PeerLookupReply(file_id=req.file_id, hits=hits)
        yield endpoint.send(
            msg.reply(
                protocol.GCACHE_REPLY, reply.wire_size(), payload=reply
            )
        )

    # -- client side -----------------------------------------------------------
    def lookup_remote(
        self, file_id: int, block_nos: _t.Sequence[int], want_data: bool
    ) -> _t.Generator:
        """Process body: ask each block's home cache; returns
        ``{block_no: data | None}`` for remote hits."""
        per_home: dict[str, list[int]] = {}
        me = self.module.node.name
        for block_no in block_nos:
            home = self.directory.home_of((file_id, block_no))
            if home != me:
                per_home.setdefault(home, []).append(block_no)
        if not per_home:
            return {}
        calls = []
        for home in sorted(per_home):
            channel = yield from self._channel(home)
            req = PeerLookupRequest(
                file_id=file_id,
                block_nos=per_home[home],
                want_data=want_data,
            )
            calls.append(
                channel.call(
                    Message(
                        kind=protocol.GCACHE_LOOKUP,
                        size_bytes=req.wire_size(),
                        payload=req,
                    )
                )
            )
        hits: dict[int, bytes | None] = {}
        for call in calls:
            reply_msg = yield call.response()
            call.close()
            reply: PeerLookupReply = reply_msg.payload
            hits.update(reply.hits)
        self.module.metrics.inc("gcache.remote_lookups", len(block_nos))
        self.module.metrics.inc("gcache.remote_hits", len(hits))
        return hits

    def _channel(self, node: str) -> _t.Generator:
        channel = yield from self._peer_pool.channel(node)
        return channel
