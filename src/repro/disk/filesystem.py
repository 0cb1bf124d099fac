"""The iod's local block store: the data authority of the simulation.

Purely functional (no simulated time): timing is charged by
:class:`~repro.disk.model.DiskModel`; this class answers *what bytes
live where* so correctness is checkable end to end.

Blocks are fixed-size (the PVFS stripe fragments are addressed here in
cache-block units, 4 KB by default, matching the paper).  A block that
was never written reads back as zeros, like a sparse file.
"""

from __future__ import annotations

BLOCK_SIZE = 4096


class LocalFileStore:
    """Block-addressed storage for one iod."""

    def __init__(self, block_size: int = BLOCK_SIZE) -> None:
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.block_size = block_size
        # Full-block payloads stay immutable ``bytes``; a block that
        # has seen a partial patch is promoted to a ``bytearray`` once
        # and patched in place from then on (the zero-copy write path).
        self._blocks: dict[tuple[int, int], bytes | bytearray] = {}

    def read_range(self, file_id: int, offset: int, nbytes: int) -> bytes:
        """Assemble ``[offset, offset+nbytes)`` into one buffer.

        The zero-copy read path: one output ``bytearray`` is allocated
        and block payloads land in it through ``memoryview`` slice
        assignment — no per-block ``bytes`` temporaries, no final
        ``join``.  Unwritten and size-only blocks read as zeros (the
        buffer starts zeroed, so they cost nothing at all).
        """
        if nbytes == 0:
            return b""
        block_size = self.block_size
        out = bytearray(nbytes)
        view = memoryview(out)
        blocks = self._blocks
        for block in blocks_spanned(offset, nbytes, block_size):
            data = blocks.get((file_id, block))
            if not data:
                continue
            start, length = slice_for_block(offset, nbytes, block, block_size)
            pos = block * block_size + start - offset
            view[pos : pos + length] = memoryview(data)[start : start + length]
        view.release()
        return bytes(out)

    def write_range(
        self, file_id: int, offset: int, nbytes: int, data: bytes | None
    ) -> None:
        """Patch ``[offset, offset+nbytes)`` with ``data`` in one pass.

        ``data=None`` is the size-only write: missing blocks are
        allocated, existing payloads are left untouched.  With a
        payload, full blocks are replaced outright and partial blocks
        are patched in place on a ``bytearray`` — no
        ``old[:start] + piece + old[start+length:]`` triple copy.
        """
        if nbytes == 0:
            return
        block_size = self.block_size
        blocks = self._blocks
        if data is None:
            for block in blocks_spanned(offset, nbytes, block_size):
                key = (file_id, block)
                if key not in blocks:
                    blocks[key] = b""
            return
        if len(data) < nbytes:
            # Short payloads (never produced by the protocol layer)
            # zero-fill.
            data = bytes(data) + b"\x00" * (nbytes - len(data))
        src = memoryview(data)
        for block in blocks_spanned(offset, nbytes, block_size):
            start, length = slice_for_block(offset, nbytes, block, block_size)
            pos = block * block_size + start - offset
            piece = src[pos : pos + length]
            key = (file_id, block)
            if length == block_size:
                blocks[key] = bytes(piece)
                continue
            old = blocks.get(key)
            if isinstance(old, bytearray):
                buf = old  # already mutable: patch in place, zero copies
            elif old:
                buf = bytearray(old)
            else:
                buf = bytearray(block_size)
            buf[start : start + length] = piece
            blocks[key] = buf
        src.release()


def blocks_spanned(
    offset: int, nbytes: int, block_size: int = BLOCK_SIZE
) -> range:
    """Block numbers touched by a byte range ``[offset, offset+nbytes)``."""
    if offset < 0 or nbytes < 0:
        raise ValueError(f"invalid range offset={offset} nbytes={nbytes}")
    if nbytes == 0:
        return range(0)
    first = offset // block_size
    last = (offset + nbytes - 1) // block_size
    return range(first, last + 1)


def slice_for_block(
    offset: int,
    nbytes: int,
    block_no: int,
    block_size: int = BLOCK_SIZE,
) -> tuple[int, int]:
    """Overlap of ``[offset, offset+nbytes)`` with ``block_no``.

    Returns ``(start_within_block, length)``; length may be zero when
    the request does not touch the block.
    """
    block_start = block_no * block_size
    lo = max(offset, block_start)
    hi = min(offset + nbytes, block_start + block_size)
    if hi <= lo:
        return (0, 0)
    return (lo - block_start, hi - lo)
