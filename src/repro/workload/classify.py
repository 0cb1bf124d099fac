"""Online classification of inter-application sharing patterns.

Paper, Section 5: "We plan to classify different sharing patterns and
develop different I/O optimizations for each type of pattern.  In
particular, we are interested in addressing this issue from the
viewpoint of inter-application sharing."

This module implements that classifier over block-access traces.  Per
file it distinguishes:

* ``private``            — one process only;
* ``read-shared``        — several readers, nobody writes;
* ``producer-consumer``  — one writer whose writes precede other
  processes' reads of the same blocks;
* ``read-write-shared``  — multiple writers, or reads racing writes on
  the same blocks (the patterns that need ``sync_write`` coherence);
* ``disjoint``           — several processes but block sets never
  overlap (spatially partitioned, "completely data parallel").

The per-pattern recommendation mirrors the optimizations the paper
sketches: aggressive caching for read sharing, forwarding/prefetch for
producer-consumer, coherent writes for read-write sharing.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from collections import defaultdict


@dataclasses.dataclass(frozen=True)
class AccessRecord:
    """One block access observed at a cache module."""

    time: float
    process: str  # unique process identity, e.g. "node0/pid3"
    file_id: int
    block_no: int
    op: str  # "read" | "write"

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"unknown op {self.op!r}")


PATTERNS = (
    "private",
    "read-shared",
    "producer-consumer",
    "read-write-shared",
    "disjoint",
    "unused",
)

RECOMMENDATIONS: dict[str, str] = {
    "private": "local caching is sufficient; no coherence needed",
    "read-shared": (
        "cache aggressively and co-schedule the applications on the "
        "same nodes (Fig. 8 regime)"
    ),
    "producer-consumer": (
        "flush eagerly and prefetch/forward produced blocks to the "
        "consumer's node"
    ),
    "read-write-shared": (
        "use sync_write coherence; consider demoting to write-through"
    ),
    "disjoint": "partition-aware placement; no shared-cache benefit",
    "unused": "no accesses observed",
}


class SharingClassifier:
    """Streaming classifier over :class:`AccessRecord` events."""

    def __init__(self) -> None:
        #: file -> process -> set of blocks read / written
        self._readers: dict[int, dict[str, set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._writers: dict[int, dict[str, set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        #: (file, block) -> time of first write / first read-after-write
        self._first_write: dict[tuple[int, int], tuple[float, str]] = {}
        #: races: a read of a block that some OTHER process wrote
        #: *after* that write (ordering respected) is producer-consumer;
        #: a write to a block another process wrote marks rw-sharing.
        self._cross_reads: set[int] = set()
        self._write_write: set[int] = set()
        self._read_before_write: set[int] = set()
        self.records_seen = 0

    def record(self, record: AccessRecord) -> None:
        """Fold one access record into the statistics."""
        self.records_seen += 1
        key = (record.file_id, record.block_no)
        if record.op == "write":
            self._writers[record.file_id][record.process].add(record.block_no)
            first = self._first_write.get(key)
            if first is None:
                self._first_write[key] = (record.time, record.process)
            elif first[1] != record.process:
                self._write_write.add(record.file_id)
        else:
            self._readers[record.file_id][record.process].add(record.block_no)
            first = self._first_write.get(key)
            if first is not None and first[1] != record.process:
                if record.time >= first[0]:
                    self._cross_reads.add(record.file_id)
                else:  # pragma: no cover - needs out-of-order feed
                    self._read_before_write.add(record.file_id)

    def observe(self, records: _t.Iterable[AccessRecord]) -> None:
        """Fold many records."""
        for record in records:
            self.record(record)

    # -- classification ------------------------------------------------------
    def processes_of(self, file_id: int) -> set[str]:
        """Processes that touched ``file_id``."""
        return set(self._readers.get(file_id, {})) | set(
            self._writers.get(file_id, {})
        )

    def classify(self, file_id: int) -> str:
        """The file's sharing pattern (see PATTERNS)."""
        readers = self._readers.get(file_id, {})
        writers = self._writers.get(file_id, {})
        processes = set(readers) | set(writers)
        if not processes:
            return "unused"
        if len(processes) == 1:
            return "private"
        if not writers:
            # several processes, read-only: overlapping -> read-shared
            block_sets = [frozenset(s) for s in readers.values()]
            if _any_overlap(block_sets):
                return "read-shared"
            return "disjoint"
        if file_id in self._write_write:
            return "read-write-shared"
        if file_id in self._cross_reads:
            # single writer, consumed by others in write->read order
            return "producer-consumer"
        # writes exist but nobody else touches those blocks
        all_sets = [frozenset(s) for s in readers.values()] + [
            frozenset(s) for s in writers.values()
        ]
        if _any_overlap(all_sets):
            return "read-write-shared"
        return "disjoint"

    def recommendation(self, file_id: int) -> str:
        """Optimization advice for the pattern."""
        return RECOMMENDATIONS[self.classify(file_id)]

    def report(self) -> dict[int, str]:
        """Classification of every file seen."""
        files = set(self._readers) | set(self._writers)
        return {file_id: self.classify(file_id) for file_id in sorted(files)}


def _any_overlap(block_sets: _t.Sequence[frozenset[int]]) -> bool:
    for i, a in enumerate(block_sets):
        for b in block_sets[i + 1 :]:
            if a & b:
                return True
    return False


def classify_trace(
    trace: _t.Any, block_size: int = 4096
) -> dict[str, str]:
    """Classify every path of a trace IR; returns path -> pattern.

    Feeds a :class:`~repro.workload.trace.Trace` (or any iterable of
    :class:`~repro.workload.trace.TraceEvent`) through the streaming
    classifier, expanding strided events range by range: a recorded
    run (``TraceRecorder.trace()``) or an imported trace alike.
    """
    classifier = SharingClassifier()
    events = sorted(trace, key=lambda e: e.time)
    path_ids: dict[str, int] = {}
    for event in events:
        file_id = path_ids.setdefault(event.path, len(path_ids))
        op = "write" if event.op in ("write", "sync_write") else "read"
        for offset, nbytes in event.ranges:
            if nbytes <= 0:
                continue
            first = offset // block_size
            last = (offset + nbytes - 1) // block_size
            for block_no in range(first, last + 1):
                classifier.record(
                    AccessRecord(
                        time=event.time,
                        process=event.process,
                        file_id=file_id,
                        block_no=block_no,
                        op=op,
                    )
                )
    return {
        path: classifier.classify(file_id)
        for path, file_id in sorted(path_ids.items())
    }
