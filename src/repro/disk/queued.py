"""Analytic queued disk model: service times computed, not simulated.

The mechanical model (:class:`~repro.disk.model.DiskModel`) simulates
the spindle as a capacity-1 :class:`~repro.sim.Resource`: every
request costs a process spawn, a resource acquire, a service timeout,
and a release — four heap events plus generator round-trips, O(requests)
in total.  Cache-aware analytic storage models (CAWL; Do et al.'s
page-cache model) show that disk service times can be *computed*
rather than simulated without losing accuracy.

:class:`QueuedDiskModel` models the spindle as an analytic FIFO
queue.  A whole coalesced run list (one :meth:`io_batch` call) becomes
a single queue entry: its service time is computed in one pass with
the same seek/rotation/transfer decomposition the mechanical model
charges, its start time is the queue's ``busy-until`` horizon, and one
shared reschedulable :class:`~repro.sim.events.Timer` fires at batch
completions — O(batches) events, no Resource or per-request process.

Divergence from the mechanical model (DESIGN.md §13): a batch is
serviced *atomically*.  The mechanical model re-acquires the spindle
per run, so a concurrent request can interleave between the runs of a
batch and steal the earlier service slot.  FIFO order, total service
demand, and sequential-run detection are otherwise identical, so
makespans of order-insensitive workloads match exactly and contended
per-request completions differ by at most a batch's service time.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.disk.model import DiskModel
from repro.sim import Environment, Event, Timer


class QueuedDiskModel(DiskModel):
    """Analytic FIFO spindle queue with batched service.

    Accepts the same constructor parameters and exposes the same
    counters, :meth:`io`, and :meth:`io_batch` surface as the
    mechanical model, so it is a drop-in behind the
    ``ClusterConfig.disk_model`` seam.
    """

    batched: _t.ClassVar[bool] = True

    def __init__(
        self,
        env: Environment,
        avg_seek_s: float = 8.5e-3,
        half_rotation_s: float = 5.6e-3,
        transfer_bytes_per_s: float = 20e6,
    ) -> None:
        super().__init__(
            env,
            avg_seek_s=avg_seek_s,
            half_rotation_s=half_rotation_s,
            transfer_bytes_per_s=transfer_bytes_per_s,
        )
        #: Simulated time the spindle finishes everything admitted so
        #: far; a batch arriving later than this starts immediately.
        self._busy_until = 0.0
        #: Admitted batches in service order: (finish time, event).
        #: FIFO admission makes the finish times monotone, so the head
        #: is always the next completion.
        self._fifo: deque[tuple[float, Event]] = deque()
        self._timer: Timer = env.timer(self._on_timer)

    def io(
        self, file_id: int, offset: int, nbytes: int, write: bool
    ) -> _t.Generator:
        """Process body: one request is a one-run batch."""
        yield from self.io_batch(file_id, ((offset, nbytes),), write)

    def io_batch(
        self,
        file_id: int,
        runs: _t.Sequence[tuple[int, int]],
        write: bool = False,
        on_run_complete: _t.Callable[[int], None] | None = None,
    ) -> _t.Generator:
        """Process body: service ``runs`` as one analytic queue entry.

        Seek accounting happens at admission, in arrival order — which
        is also FIFO service order, so the head-position evolution
        matches what the mechanical spindle would compute request by
        request.  ``on_run_complete(i)`` fires for every run when the
        batch's last byte is transferred (data is resident only once
        the I/O completes).
        """
        service = 0.0
        total = 0
        for offset, nbytes in runs:
            if nbytes < 0:
                raise ValueError(f"negative I/O size {nbytes}")
            sequential = self.is_sequential(file_id, offset)
            if not sequential:
                self.seeks += 1
            service += self.access_time(nbytes, sequential)
            self._last_file = file_id
            self._last_end = offset + nbytes
            total += nbytes
        now = self.env.now
        start = self._busy_until if self._busy_until > now else now
        finish = start + service
        self._busy_until = finish
        done = Event(self.env)
        self._fifo.append((finish, done))
        if len(self._fifo) == 1:
            self._timer.arm_at(finish)
        yield done
        if write:
            self.writes += len(runs)
            self.bytes_written += total
        else:
            self.reads += len(runs)
            self.bytes_read += total
        if on_run_complete is not None:
            for index in range(len(runs)):
                on_run_complete(index)

    def _on_timer(self, timer: Timer) -> None:
        """Complete every batch due now; re-arm for the next head."""
        now = self.env.now
        fifo = self._fifo
        while fifo and fifo[0][0] <= now:
            _finish, done = fifo.popleft()
            done.succeed()
        if fifo:
            timer.arm_at(fifo[0][0])

    @property
    def queue_length(self) -> int:
        """Batches waiting behind the one in service."""
        backlog = len(self._fifo) - 1
        return backlog if backlog > 0 else 0
