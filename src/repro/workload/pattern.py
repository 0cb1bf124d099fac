"""Access-pattern generation for the micro-benchmark.

Each process walks its own partition of a file ("each processor/node
in an application accesses a distinct portion of the file — completely
data parallel").  Two knobs shape the stream:

* **locality** ``l``: each request re-visits the previous offset with
  probability ``l`` (a guaranteed cache hit when caching is on, since
  a request never exceeds the cache size), otherwise advances to fresh
  data.  ``l=0`` makes every request a compulsory miss; ``l=1`` makes
  every request after the first a hit — exactly the paper's best/worst
  cases.
* **sharing** ``s``: a request targets the *shared* file with
  probability ``s``, the instance-private file otherwise.  Instances
  draw the same shared-offset sequence, so one instance's misses
  become the other's hits when they share a node's cache.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np


@dataclasses.dataclass(slots=True)
class AccessDescriptor:
    """One generated request."""

    target: str  # "shared" | "private"
    offset: int
    nbytes: int
    fresh: bool  # False when this is a locality re-visit


def _uniforms(rng: np.random.Generator) -> _t.Iterator[float]:
    """The doubles successive ``rng.random()`` calls would return,
    drawn a block at a time (one numpy call per block, same stream)."""
    while True:
        yield from rng.random(1024).tolist()


class AccessPattern:
    """Deterministic per-process request stream."""

    def __init__(
        self,
        request_size: int,
        partition_start: int,
        partition_bytes: int,
        locality: float,
        sharing: float,
        seed: int,
        shared_start_slot: int = 0,
    ) -> None:
        if request_size <= 0:
            raise ValueError(f"request size must be positive, got {request_size}")
        if partition_bytes < request_size:
            raise ValueError(
                f"partition of {partition_bytes} cannot hold one request "
                f"of {request_size}"
            )
        if not (0.0 <= locality <= 1.0):
            raise ValueError(f"locality must be in [0,1], got {locality}")
        if not (0.0 <= sharing <= 1.0):
            raise ValueError(f"sharing must be in [0,1], got {sharing}")
        self.request_size = request_size
        self.partition_start = partition_start
        self.partition_bytes = partition_bytes
        self.locality = locality
        self.sharing = sharing
        self._uniform = _uniforms(np.random.default_rng(seed)).__next__
        #: Both instances walk the SAME shared slots (that is what
        #: "sharing" means), but starting ``shared_start_slot`` apart:
        #: two copies of one program rarely process the dataset from
        #: the identical position, and the stagger is what lets each
        #: instance first-touch half the data while hitting on the
        #: other half — perfectly phase-locked walks would instead
        #: collide on every in-flight fetch.
        self._cursor: dict[str, int] = {
            "shared": shared_start_slot,
            "private": 0,
        }
        self._last: dict[str, int | None] = {"shared": None, "private": None}
        #: How many requests fit in the partition before wrapping.
        self.requests_per_pass = partition_bytes // request_size

    def _fresh_offset(self, target: str) -> int:
        slot = self._cursor[target] % self.requests_per_pass
        self._cursor[target] += 1
        return self.partition_start + slot * self.request_size

    def next(self) -> AccessDescriptor:
        """Generate the next request descriptor."""
        target = "shared" if self._uniform() < self.sharing else "private"
        last = self._last[target]
        if last is not None and self._uniform() < self.locality:
            return AccessDescriptor(target, last, self.request_size, False)
        offset = self._fresh_offset(target)
        self._last[target] = offset
        return AccessDescriptor(target, offset, self.request_size, True)

    def stream(self, n: int) -> _t.Iterator[AccessDescriptor]:
        """Yield the next ``n`` request descriptors."""
        for _ in range(n):
            yield self.next()
