"""Disjoint integer-interval sets.

Cache blocks track which of their bytes are *valid* (populated by a
write or a fetch) and which are *dirty* (not yet flushed).  Requests
are contiguous, but sub-block writes mean a block can be partially
valid, so both sets are interval lists rather than booleans.  The
iods' sharer directory (:mod:`repro.pvfs.directory`) keeps runs of
block numbers in the same class.
"""

from __future__ import annotations

import typing as _t
from bisect import bisect_left, bisect_right

Interval = tuple[int, int]  # half-open [start, end)


class ByteRanges:
    """A set of disjoint, sorted, half-open integer intervals.

    Stored as one flat, strictly increasing boundary list
    ``[s0, e0, s1, e1, ...]``: a point with an odd number of
    boundaries at or below it is inside the set, one with an even
    number is outside, so every operation is a bisect and a splice.
    """

    __slots__ = ("_bounds",)

    def __init__(self, intervals: _t.Iterable[Interval] = ()) -> None:
        self._bounds: list[int] = []
        for start, end in intervals:
            self.add(start, end)

    # -- mutation ------------------------------------------------------------
    def add(self, start: int, end: int) -> None:
        """Insert [start, end), merging with touching intervals."""
        self._splice(start, end, 0)

    def remove(self, start: int, end: int) -> None:
        """Delete [start, end) from the set (splitting as needed)."""
        self._splice(start, end, 1)

    def _splice(self, start: int, end: int, removing: int) -> None:
        """Replace every boundary in [start, end] by the (at most two)
        that the new edge of the set needs: ``start`` when it falls
        outside the set on an add / inside it on a remove, and the
        same for ``end``."""
        if start > end:
            raise ValueError(f"inverted interval [{start}, {end})")
        if start == end:
            return
        bounds = self._bounds
        lo = bisect_left(bounds, start)
        hi = bisect_right(bounds, end)
        edge = []
        if lo & 1 == removing:
            edge.append(start)
        if hi & 1 == removing:
            edge.append(end)
        bounds[lo:hi] = edge

    def clear(self) -> None:
        """Remove every interval."""
        if self._bounds:
            self._bounds.clear()

    # -- queries ---------------------------------------------------------------
    def covers(self, start: int, end: int) -> bool:
        """True when [start, end) is fully inside one interval."""
        if start == end:
            return True
        bounds = self._bounds
        i = bisect_right(bounds, start)
        return i & 1 == 1 and end <= bounds[i]

    def gaps(self, start: int, end: int) -> list[Interval]:
        """Sub-intervals of [start, end) NOT covered by this set."""
        if start > end:
            raise ValueError(f"inverted interval [{start}, {end})")
        return self._pieces(start, end, 0)

    def intersect(self, start: int, end: int) -> list[Interval]:
        """Sub-intervals of [start, end) covered by this set."""
        return self._pieces(start, end, 1)

    def _pieces(self, start: int, end: int, inside: int) -> list[Interval]:
        """[start, end) cut at every boundary within it: the stretches
        alternate outside/inside, and those of the asked kind are kept."""
        out: list[Interval] = []
        if start >= end:
            return out
        bounds = self._bounds
        n = len(bounds)
        i = bisect_right(bounds, start)
        if (i ^ inside) & 1:  # start lies in a stretch of the other kind
            if i == n or bounds[i] >= end:
                return out
            start = bounds[i]
            i += 1
        while i < n and bounds[i] < end:  # a kept stretch ends here ...
            out.append((start, bounds[i]))
            i += 1
            if i == n or bounds[i] >= end:
                return out
            start = bounds[i]  # ... and the next one starts here
            i += 1
        out.append((start, end))
        return out

    @property
    def total(self) -> int:
        """Total bytes covered."""
        bounds = self._bounds
        return sum(bounds[1::2]) - sum(bounds[::2])

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The disjoint sorted intervals as a tuple."""
        flat = iter(self._bounds)
        return tuple(zip(flat, flat))

    def __len__(self) -> int:
        """Number of disjoint intervals."""
        return len(self._bounds) >> 1

    def is_empty(self) -> bool:
        """True when nothing is covered."""
        return not self._bounds

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ByteRanges):
            return self._bounds == other._bounds
        return NotImplemented

    def __repr__(self) -> str:
        return f"ByteRanges({list(self.intervals)!r})"
