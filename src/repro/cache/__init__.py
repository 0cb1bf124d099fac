"""The paper's contribution: the per-node kernel-level shared I/O cache.

The module interposes between libpvfs and the iod sockets — one
instance per node, shared by *every* process on the node, which is what
turns one application's misses into another application's hits
(inter-application data sharing, Section 1).

Components map one-to-one onto the paper's Section 3.2:

* :class:`~repro.cache.manager.BufferManager` — "a full-fledged buffer
  manager of blocks, requiring the implementation of hash tables, free
  list and dirty list".  The hash table is a ``dict`` and the dirty
  list an insertion-ordered ``dict``; the free list, which makes
  allocators wait, is :class:`~repro.cache.freelist.FreeList`;
* :class:`~repro.cache.clock.ClockPolicy` — "an approximate LRU
  replacement algorithm ... preference for replacement is given to
  clean blocks over dirty ones";
* :class:`~repro.cache.flusher.Flusher` — write-behind kernel thread,
  with a server peer on each iod;
* :class:`~repro.cache.harvester.Harvester` — frees blocks ahead of
  demand between a low and a high watermark;
* :class:`~repro.cache.module.CacheModule` — the interception layer
  (read / write / sync_write) plus the invalidation listener.  Its
  control flow is the paper's per-socket finite state machine: lookup,
  split requests around cached blocks, fake the iods' acknowledgements,
  await data, copy out.
"""

from repro.cache.block import BlockState, CacheBlock
from repro.cache.manager import BufferManager, InvariantViolation
from repro.cache.module import CacheModule
from repro.cache.prefetch import ReadAhead
from repro.cache.ranges import ByteRanges

__all__ = [
    "BlockState",
    "BufferManager",
    "ByteRanges",
    "CacheBlock",
    "CacheModule",
    "InvariantViolation",
    "ReadAhead",
]
