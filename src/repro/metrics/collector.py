"""A lightweight counters + latency-series collector.

One :class:`Metrics` instance is shared by every component of a
cluster; experiment harnesses read it after ``env.run()`` to build the
rows of each reproduced figure.
"""

from __future__ import annotations

import math
from collections import defaultdict


class Metrics:
    """Named counters and named series of float samples."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.series: dict[str, list[float]] = defaultdict(list)

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter."""
        self.counters[name] += n

    def count(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        return self.counters.get(name, 0)

    # -- samples -----------------------------------------------------------
    def record(self, name: str, value: float) -> None:
        """Append one sample to a named series."""
        self.series[name].append(float(value))

    def mean(self, name: str) -> float:
        """Mean of a series (NaN when empty)."""
        data = self.series.get(name)
        if not data:
            return math.nan
        return sum(data) / len(data)
