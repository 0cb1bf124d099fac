"""The benchmark's own load generator.

Spawns one simulated process per trace process, issues every event
through the public libpvfs client, and records each op's
``(kind, due, issued, done, nbytes, ok)`` in simulated time.

* Closed loop issues back to back, honouring each event's ``think_s``;
  an op is due when it is issued.
* Open loop holds each op to its stamp and times it from when it was
  *due*, so head-of-line lag behind a slow predecessor and the
  ``open()`` the op triggers are inside its latency (the program's own
  ``client.*_latency`` series exclude both).

With a :class:`bench.check.Reference` the same loop carries real
payloads and hands every read to the reference for comparison.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from bench.check import Reference
    from repro.cluster import Cluster
    from repro.workload.trace import Trace, TraceEvent


@dataclasses.dataclass
class OpLog:
    """Per-op records, one list per field (simulated seconds)."""

    kind: list[str] = dataclasses.field(default_factory=list)
    due: list[float] = dataclasses.field(default_factory=list)
    issued: list[float] = dataclasses.field(default_factory=list)
    done: list[float] = dataclasses.field(default_factory=list)
    nbytes: list[int] = dataclasses.field(default_factory=list)
    ok: list[bool] = dataclasses.field(default_factory=list)
    #: Latency of every ``open()`` an op triggered.
    open_latency: list[float] = dataclasses.field(default_factory=list)
    #: ``repr`` of the first few exceptions ops raised.
    errors: list[str] = dataclasses.field(default_factory=list)

    def latencies(self) -> list[float]:
        """Completion minus due time of every op that succeeded."""
        return [
            done - due
            for done, due, ok in zip(self.done, self.due, self.ok)
            if ok
        ]


@dataclasses.dataclass
class RunResult:
    log: OpLog
    attempted: int
    #: Simulated seconds from first spawn to last completion.
    makespan_s: float
    #: Host wall seconds of exactly the spawn-and-run region.
    host_s: float
    #: Set when the simulation stopped before every process finished.
    stalled: str = ""

    @property
    def failed(self) -> int:
        """Ops that raised plus ops that never completed."""
        completed_ok = sum(self.log.ok)
        return self.attempted - completed_ok


def _issue(client, handle, event: "TraceEvent") -> _t.Generator:
    """Size-only issue of one event (the figure sweeps run like this)."""
    op = event.op
    if event.is_list:
        if op == "read":
            yield from client.readv(handle, event.ranges)
        else:
            yield from client.writev(
                handle, event.ranges, sync=op == "sync_write"
            )
    elif op == "read":
        yield from client.read(handle, event.offset, event.nbytes)
    elif op == "write":
        yield from client.write(handle, event.offset, event.nbytes)
    else:
        yield from client.sync_write(handle, event.offset, event.nbytes)


def _issue_checked(
    client, handle, event: "TraceEvent", reference: "Reference"
) -> _t.Generator:
    """Issue with real payloads; returns how many blocks read wrong."""
    env = client.env
    node = client.node.name
    ranges = event.ranges
    if event.op == "read":
        start = env.now
        if event.is_list:
            parts = yield from client.readv(handle, ranges, want_data=True)
        else:
            data = yield from client.read(
                handle, event.offset, event.nbytes, want_data=True
            )
            parts = [data]
        return reference.check_read(
            event.path, ranges, node, start, env.now, parts
        )
    sync = event.op == "sync_write"
    chunks, writes = reference.begin_write(
        event.path, ranges, node, sync, env.now
    )
    if event.is_list:
        yield from client.writev(handle, ranges, chunks, sync=sync)
    elif sync:
        yield from client.sync_write(
            handle, event.offset, event.nbytes, chunks[0]
        )
    else:
        yield from client.write(handle, event.offset, event.nbytes, chunks[0])
    reference.end_write(writes, env.now)
    return 0


def _process(
    cluster: "Cluster",
    node: str,
    events: _t.Sequence["TraceEvent"],
    open_loop: bool,
    log: OpLog,
    reference: "Reference | None",
    after_op: _t.Callable[[], None] | None,
) -> _t.Generator:
    env = cluster.env
    client = cluster.client(node)
    handles: dict[str, _t.Any] = {}
    start = env.now
    for event in events:
        if open_loop:
            due = start + event.time
            delay = due - env.now
            if delay > 0:
                yield env.timeout(delay)
        else:
            if event.think_s > 0:
                yield env.timeout(event.think_s)
            due = env.now
        issued = env.now
        ok = True
        try:
            handle = handles.get(event.path)
            if handle is None:
                handle = yield from client.open(event.path)
                handles[event.path] = handle
                log.open_latency.append(env.now - issued)
            if reference is None:
                yield from _issue(client, handle, event)
            else:
                wrong = yield from _issue_checked(
                    client, handle, event, reference
                )
                ok = wrong == 0
        except Exception as exc:  # an op that raises is a failed op
            ok = False
            if len(log.errors) < 8:
                log.errors.append(repr(exc))
        log.kind.append(event.op)
        log.due.append(due)
        log.issued.append(issued)
        log.done.append(env.now)
        log.nbytes.append(event.total_bytes)
        log.ok.append(ok)
        if after_op is not None:
            after_op()


def run(
    cluster: "Cluster",
    trace: "Trace",
    reference: "Reference | None" = None,
    region: _t.ContextManager | None = None,
    after_op: _t.Callable[[], None] | None = None,
) -> RunResult:
    """Drive ``trace`` to completion on ``cluster``.

    ``trace.meta`` says where each process runs (``placement``) and
    whether arrivals are scheduled (``open_loop``).  ``region`` is
    entered around exactly the timed region (the traced pass runs its
    sampler there); ``after_op`` runs as each op completes (the traced
    pass probes queue depths there, at schedule-fixed instants).
    """
    env = cluster.env
    placement = trace.meta["placement"]
    open_loop = bool(trace.meta.get("open_loop"))
    log = OpLog()
    streams = trace.by_process()
    stalled = ""
    with region if region is not None else contextlib.nullcontext():
        host_start = time.perf_counter()
        sim_start = env.now
        procs = [
            env.process(
                _process(
                    cluster, placement[name], streams[name], open_loop, log,
                    reference, after_op,
                ),
                name=f"bench-{name}",
            )
            for name in sorted(streams)
        ]
        try:
            env.run(until=env.all_of(procs))
        except RuntimeError as exc:
            # The event queue drained with processes still waiting:
            # the ops they never finished count as failed.
            stalled = str(exc)
        host_s = time.perf_counter() - host_start
    return RunResult(
        log=log,
        attempted=len(trace),
        makespan_s=env.now - sim_start,
        host_s=host_s,
        stalled=stalled,
    )
