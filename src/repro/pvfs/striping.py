"""File striping: how a logical byte range maps onto the iods.

PVFS distributes a file round-robin in fixed-size *stripe units*
(64 KB by default) across the iod set.  Stripe unit ``k`` of a file
lives on iod ``k mod n`` at local offset ``(k div n) * stripe_size``.

:class:`StripeLayout` is also the one planner of per-iod requests:
libpvfs's raw reads and writes and the cache module's miss fetches and
write-throughs all turn byte ranges into requests with :meth:`plan`
(reads) or :meth:`plan_write` (writes).
"""

from __future__ import annotations

import dataclasses
import typing as _t
from operator import itemgetter

from repro.pvfs.protocol import Range, coalesce_ranges


@dataclasses.dataclass(frozen=True)
class StripeLayout:
    """Round-robin stripe map over ``n_iods`` servers."""

    n_iods: int
    stripe_size: int

    def __post_init__(self) -> None:
        if self.n_iods < 1:
            raise ValueError(f"need at least one iod, got {self.n_iods}")
        if self.stripe_size <= 0:
            raise ValueError(f"stripe size must be positive, got {self.stripe_size}")

    def iod_index(self, offset: int) -> int:
        """Which iod holds the byte at ``offset``."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        return (offset // self.stripe_size) % self.n_iods

    def local_offset(self, offset: int) -> int:
        """Byte offset within the owning iod's local stripe file."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        stripe = offset // self.stripe_size
        return (stripe // self.n_iods) * self.stripe_size + (
            offset % self.stripe_size
        )

    def split(self, offset: int, nbytes: int) -> dict[int, list[Range]]:
        """The pieces of ``[offset, offset+nbytes)`` on each iod, keyed
        by iod index, in file order.

        A piece ends at a stripe-unit boundary unless the next unit is
        on the same iod (one iod), in which case the two are one piece.
        Pieces are logical file ranges; the iod maps them to its local
        file with :meth:`local_offset`.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError(f"invalid range {offset}+{nbytes}")
        out: dict[int, list[Range]] = {}
        stripe_size = self.stripe_size
        pos = offset
        end = offset + nbytes
        while pos < end:
            stripe = pos // stripe_size
            piece_end = min(end, (stripe + 1) * stripe_size)
            pieces = out.setdefault(stripe % self.n_iods, [])
            if pieces and pieces[-1][0] + pieces[-1][1] == pos:
                last_off, last_n = pieces[-1]
                pieces[-1] = (last_off, last_n + piece_end - pos)
            else:
                pieces.append((pos, piece_end - pos))
            pos = piece_end
        return out

    def plan(self, ranges: _t.Iterable[Range]) -> list[tuple[int, list[Range]]]:
        """Per-iod read requests for ``ranges``: ``(iod index, ranges)``
        in iod-index order.

        Each iod gets the pieces of every range that lie on it, sorted,
        with overlapping and touching pieces merged, so n ranges cost
        one request per iod (PVFS list I/O); a contiguous read is the
        one-range list.
        """
        per_iod: dict[int, list[Range]] = {}
        for offset, nbytes in ranges:
            for idx, pieces in self.split(offset, nbytes).items():
                per_iod.setdefault(idx, []).extend(pieces)
        return [(idx, coalesce_ranges(per_iod[idx])) for idx in sorted(per_iod)]

    def plan_write(
        self,
        ranges: _t.Sequence[Range],
        chunks: _t.Sequence[bytes | None] | None,
    ) -> list[tuple[int, list[Range], list[bytes | None]]]:
        """Per-iod write requests for ``ranges``: ``(iod index, ranges,
        chunks)`` in iod-index order.

        ``chunks`` holds one byte string (or ``None``) per range, or is
        ``None`` for a size-only write.  Each piece of a range carries
        its slice of the range's chunk.  An iod's pieces are sorted by
        offset but not merged: overlapping writes keep their order and
        their bytes.
        """
        per_iod: dict[int, list[tuple[Range, bytes | None]]] = {}
        for i, (offset, nbytes) in enumerate(ranges):
            chunk = chunks[i] if chunks is not None else None
            for idx, pieces in self.split(offset, nbytes).items():
                entries = per_iod.setdefault(idx, [])
                for roff, rlen in pieces:
                    piece = (
                        chunk[roff - offset : roff - offset + rlen]
                        if chunk is not None
                        else None
                    )
                    entries.append(((roff, rlen), piece))
        out = []
        for idx in sorted(per_iod):
            entries = sorted(per_iod[idx], key=itemgetter(0))
            out.append((idx, [r for r, _ in entries], [c for _, c in entries]))
        return out
