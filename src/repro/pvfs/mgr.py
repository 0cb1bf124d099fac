"""The PVFS metadata server (``mgr``).

Serves ``open`` requests: path -> file id plus the stripe layout
clients need to address the iods.  The paper's cache deliberately does
**not** cache metadata ("they necessarily go to the meta-data
server"), so every open pays a round trip here — which makes the mgr
the system's serialization point under open-loop load.

The namespace can be hash-partitioned across ``n_shards`` instances
(DESIGN.md §17): shard ``k`` owns every path with
``protocol.mgr_shard_of(path, n_shards) == k`` and allocates file ids
from ``count(k + 1, step=n_shards)``, so ids stay globally unique and
a file's owning shard is recoverable from its id alone.  The default
``n_shards=1`` is exactly the paper's single mgr — same label, same
id sequence, bit-identical schedules.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.cluster.node import Node
from repro.metrics import Metrics
from repro.net import Message
from repro.pvfs import protocol
from repro.pvfs.protocol import FileHandle
from repro.svc import Service, handles


class MetadataServer(Service):
    """The mgr daemon."""

    def __init__(
        self,
        node: Node,
        iod_nodes: _t.Sequence[str],
        stripe_size: int,
        metrics: Metrics,
        port: int = 3000,
        shard_index: int = 0,
        n_shards: int = 1,
    ) -> None:
        if not (0 <= shard_index < n_shards):
            raise ValueError(
                f"shard_index {shard_index} out of range for "
                f"{n_shards} shard(s)"
            )
        # The single-shard label stays the bare "mgr" so default
        # clusters register, trace, and hash exactly as before.
        label = "mgr" if n_shards == 1 else f"mgr{shard_index}"
        super().__init__(node.env, label, node=node)
        self.iod_nodes = tuple(iod_nodes)
        self.stripe_size = stripe_size
        self.metrics = metrics
        self.port = port
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.request_cpu_s = node.costs.mgr_request_cpu_s
        self._file_ids = itertools.count(shard_index + 1, n_shards)
        self._by_path: dict[str, FileHandle] = {}

    def _on_start(self) -> None:
        self.serve(self.port)

    def lookup(self, path: str) -> FileHandle | None:
        """Direct (non-simulated) metadata inspection for tests."""
        return self._by_path.get(path)

    def _open(self, path: str) -> FileHandle:
        handle = self._by_path.get(path)
        if handle is None:
            handle = FileHandle(
                file_id=next(self._file_ids),
                path=path,
                iod_nodes=self.iod_nodes,
                stripe_size=self.stripe_size,
            )
            self._by_path[path] = handle
            self.metrics.inc("mgr.creates")
        return handle

    # -- request handlers --------------------------------------------------
    @handles(protocol.MGR_OPEN)
    def _handle_open(self, msg: Message, endpoint) -> _t.Generator:
        handle = self._open(msg.payload.path)
        self.metrics.inc("mgr.opens")
        self._emit("metadata_op", op="open", shard=self.shard_index)
        yield endpoint.send(
            msg.reply(
                protocol.MGR_OPEN_ACK,
                protocol.OPEN_ACK_BYTES,
                payload=handle,
            )
        )

    @handles(protocol.MGR_STAT)
    def _handle_stat(self, msg: Message, endpoint) -> _t.Generator:
        path = msg.payload.path
        self.metrics.inc("mgr.stats")
        self._emit("metadata_op", op="stat", shard=self.shard_index)
        yield endpoint.send(
            msg.reply(
                protocol.MGR_STAT_ACK,
                protocol.OPEN_ACK_BYTES,
                payload=protocol.StatReply(
                    path=path, handle=self._by_path.get(path)
                ),
            )
        )

    @handles(protocol.MGR_UNLINK)
    def _handle_unlink(self, msg: Message, endpoint) -> _t.Generator:
        path = msg.payload.path
        existed = self._by_path.pop(path, None) is not None
        self.metrics.inc("mgr.unlinks")
        self._emit("metadata_op", op="unlink", shard=self.shard_index)
        yield endpoint.send(
            msg.reply(
                protocol.MGR_UNLINK_ACK,
                protocol.ACK_BYTES,
                payload=protocol.UnlinkReply(path=path, existed=existed),
            )
        )

    @handles(protocol.MGR_LIST)
    def _handle_list(self, msg: Message, endpoint) -> _t.Generator:
        reply = protocol.ListReply(paths=sorted(self._by_path))
        self.metrics.inc("mgr.lists")
        self._emit("metadata_op", op="list", shard=self.shard_index)
        yield endpoint.send(
            msg.reply(
                protocol.MGR_LIST_ACK,
                reply.wire_size(),
                payload=reply,
            )
        )
