"""Wire protocol between libpvfs, the cache module, mgr and the iods.

Request payloads are plain dataclasses; :class:`~repro.net.message.Message`
carries them with an explicit ``size_bytes`` so the timing model sees
realistic wire sizes regardless of the Python object shapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

# -- message kinds -------------------------------------------------------
MGR_OPEN = "mgr.open"
MGR_OPEN_ACK = "mgr.open.ack"
MGR_STAT = "mgr.stat"
MGR_STAT_ACK = "mgr.stat.ack"
MGR_UNLINK = "mgr.unlink"
MGR_UNLINK_ACK = "mgr.unlink.ack"
MGR_LIST = "mgr.list"
MGR_LIST_ACK = "mgr.list.ack"

IOD_READ = "iod.read"
IOD_READ_ACK = "iod.read.ack"
IOD_DATA = "iod.data"
IOD_WRITE = "iod.write"
IOD_WRITE_ACK = "iod.write.ack"
IOD_SYNC_WRITE = "iod.sync-write"
IOD_SYNC_ACK = "iod.sync-write.ack"

FLUSH = "cache.flush"
FLUSH_ACK = "cache.flush.ack"
INVALIDATE = "cache.invalidate"
INVALIDATE_ACK = "cache.invalidate.ack"

#: Header bytes charged per (offset, nbytes) range in a request.
RANGE_DESC_BYTES = 32
#: Bytes charged per block id in an invalidation.
BLOCK_ID_BYTES = 16
ACK_BYTES = 32
OPEN_REQ_BYTES = 128
OPEN_ACK_BYTES = 256


Range = tuple[int, int]  # (offset, nbytes), logical file coordinates


def mgr_shard_of(path: str, n_shards: int) -> int:
    """Which metadata shard owns ``path``.

    Routing hashes the path with BLAKE2b rather than Python's
    ``hash()``: string hashing is salted per interpreter, and the
    shard a file lands on decides which packets cross the wire — a
    seed-dependent route would make the schedule trace hash
    irreproducible.  Every client and every shard computes the same
    map from the same wire-visible inputs, so no routing metadata
    travels.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one mgr shard, got {n_shards}")
    if n_shards == 1:
        return 0
    digest = hashlib.blake2b(path.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def owning_mgr_shard(file_id: int, n_shards: int) -> int:
    """Which metadata shard allocated ``file_id``.

    Shard ``k`` hands out ids from ``count(k + 1, step=n_shards)``,
    so ownership is recoverable from the id alone — iods use this to
    name the owning shard on their invalidation records without extra
    wire fields (their sharer directory is keyed by file id, which
    partitions it by shard implicitly).
    """
    if n_shards < 1:
        raise ValueError(f"need at least one mgr shard, got {n_shards}")
    return (file_id - 1) % n_shards


@dataclasses.dataclass
class OpenRequest:
    path: str


@dataclasses.dataclass
class StatRequest:
    path: str


@dataclasses.dataclass
class StatReply:
    """Metadata the mgr returns for one path (None handle = absent)."""

    path: str
    handle: "FileHandle | None"


@dataclasses.dataclass
class UnlinkRequest:
    path: str


@dataclasses.dataclass
class UnlinkReply:
    path: str
    existed: bool


@dataclasses.dataclass
class ListReply:
    paths: list[str]

    def wire_size(self) -> int:
        """Bytes the directory listing occupies on the wire."""
        return sum(len(p) + 8 for p in self.paths) or ACK_BYTES


@dataclasses.dataclass(frozen=True)
class FileHandle:
    """What the mgr hands back on open: identity + physical layout."""

    file_id: int
    path: str
    iod_nodes: tuple[str, ...]
    stripe_size: int

    @property
    def n_iods(self) -> int:
        """Number of iods the file is striped over."""
        return len(self.iod_nodes)


@dataclasses.dataclass
class ReadRequest:
    file_id: int
    #: Contiguous logical byte ranges this iod must serve.
    ranges: list[Range]
    #: True when the request originates from a node's cache module
    #: (the iod then records the node in the block directory).
    from_cache: bool = False
    requester_node: str = ""
    #: Whether the response must carry real bytes (payload mode).
    want_data: bool = False

    @property
    def total_bytes(self) -> int:
        """Payload bytes requested."""
        return sum([n for _, n in self.ranges])

    def wire_size(self) -> int:
        """Bytes this request occupies on the wire."""
        return RANGE_DESC_BYTES * max(1, len(self.ranges))


@dataclasses.dataclass
class ReadData:
    """DATA response payload: one optional bytes chunk per range."""

    file_id: int
    ranges: list[Range]
    chunks: list[bytes | None]

    @property
    def total_bytes(self) -> int:
        """Payload bytes carried."""
        return sum([n for _, n in self.ranges])


@dataclasses.dataclass
class WriteRequest:
    """WRITE and SYNC_WRITE payload; the message kind says which."""

    file_id: int
    ranges: list[Range]
    #: One optional bytes chunk per range (``None`` in size-only mode).
    chunks: list[bytes | None]
    from_cache: bool = False
    requester_node: str = ""

    @property
    def total_bytes(self) -> int:
        """Payload bytes written."""
        return sum([n for _, n in self.ranges])

    def wire_size(self) -> int:
        """Bytes this request occupies on the wire."""
        return RANGE_DESC_BYTES * max(1, len(self.ranges)) + self.total_bytes


@dataclasses.dataclass
class FlushEntry:
    """One dirty fragment shipped by the client-side flusher."""

    file_id: int
    offset: int
    nbytes: int
    data: bytes | None


@dataclasses.dataclass
class FlushBatch:
    entries: list[FlushEntry]

    @property
    def total_bytes(self) -> int:
        """Payload bytes in the batch."""
        return sum([e.nbytes for e in self.entries])

    def wire_size(self) -> int:
        """Bytes this batch occupies on the wire."""
        return (
            RANGE_DESC_BYTES * max(1, len(self.entries)) + self.total_bytes
        )


@dataclasses.dataclass
class InvalidateRequest:
    file_id: int
    block_nos: list[int]

    def wire_size(self) -> int:
        """Bytes this request occupies on the wire."""
        return BLOCK_ID_BYTES * max(1, len(self.block_nos))


def coalesce_ranges(ranges: _t.Iterable[Range]) -> list[Range]:
    """Merge adjacent/overlapping ranges (sorted output).

    :meth:`~repro.pvfs.striping.StripeLayout.plan` merges each iod's
    pieces: it keeps the per-range header cost honest and mirrors
    libpvfs's request aggregation.
    """
    merged: list[Range] = []
    for off, n in sorted(ranges):
        if n <= 0:
            continue
        if merged and off <= merged[-1][0] + merged[-1][1]:
            last_off, last_n = merged[-1]
            merged[-1] = (last_off, max(last_off + last_n, off + n) - last_off)
        else:
            merged.append((off, n))
    return merged
