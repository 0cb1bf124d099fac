"""Mechanical disk timing model."""

from __future__ import annotations

import typing as _t

from repro.sim import Environment, Resource


class DiskModel:
    """A single spindle with FIFO request service.

    Timing follows the classic decomposition: a request pays seek +
    rotational latency unless it is *sequential* (starts exactly where
    the previous request on the same file ended), plus media transfer
    time proportional to its size.  Defaults approximate a 2002-era
    5400 RPM IDE disk (Maxtor, as in the paper's testbed).
    """

    def __init__(
        self,
        env: Environment,
        avg_seek_s: float = 8.5e-3,
        half_rotation_s: float = 5.6e-3,
        transfer_bytes_per_s: float = 20e6,
    ) -> None:
        if transfer_bytes_per_s <= 0:
            raise ValueError("transfer rate must be positive")
        self.env = env
        self.avg_seek_s = float(avg_seek_s)
        self.half_rotation_s = float(half_rotation_s)
        self.transfer_bytes_per_s = float(transfer_bytes_per_s)
        self._spindle = Resource(env, capacity=1)
        # Sequential-run detection only ever consults the *last*
        # access (a new file in between moves the head away), so the
        # head state is two scalars — not the per-file dict it once
        # was, which grew one entry per file touched and was never
        # pruned (a leak on long multi-file sweeps).
        self._last_file: int | None = None
        self._last_end: int = 0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.seeks = 0

    def is_sequential(self, file_id: int, offset: int) -> bool:
        """Would an access at ``offset`` continue the previous one?"""
        return self._last_file == file_id and self._last_end == offset

    def access_time(self, nbytes: int, sequential: bool) -> float:
        """Service time for one request, excluding queueing."""
        positioning = 0.0 if sequential else (
            self.avg_seek_s + self.half_rotation_s
        )
        return positioning + nbytes / self.transfer_bytes_per_s

    def io(
        self, file_id: int, offset: int, nbytes: int, write: bool
    ) -> _t.Generator:
        """Process body: perform one disk request (queue + service)."""
        if nbytes < 0:
            raise ValueError(f"negative I/O size {nbytes}")
        with self._spindle.request() as req:
            yield req
            sequential = self.is_sequential(file_id, offset)
            if not sequential:
                self.seeks += 1
            yield self.env.timeout(self.access_time(nbytes, sequential))
            self._last_file = file_id
            self._last_end = offset + nbytes
        if write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes

    def io_batch(
        self,
        file_id: int,
        runs: _t.Sequence[tuple[int, int]],
        write: bool = False,
        on_run_complete: _t.Callable[[int], None] | None = None,
    ) -> _t.Generator:
        """Process body: service a coalesced run list
        ``[(offset, nbytes), ...]`` against one file.

        This is the entry point the iod's miss path drives
        (:meth:`repro.pvfs.iod.Iod._ensure_resident`):
        ``on_run_complete(i)`` is invoked as run ``i``'s data lands,
        which is where the caller populates its page cache.

        It deliberately replays the *request-level* schedule the model
        always had — one spindle acquisition per run, so concurrent
        requests (e.g. the writeback daemon) interleave between runs
        exactly as before and same-seed trace hashes stay bit-identical
        to the pre-batch code.
        """
        for index, (offset, nbytes) in enumerate(runs):
            yield self.env.process(self.io(file_id, offset, nbytes, write))
            if on_run_complete is not None:
                on_run_complete(index)

    @property
    def queue_length(self) -> int:
        """Requests waiting for the spindle."""
        return self._spindle.queue_length
