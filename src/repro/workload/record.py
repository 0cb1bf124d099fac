"""Recording workload traces from live simulated runs.

Two attachment styles produce the same IR
(:class:`~repro.workload.trace.Trace`):

* **Per-client**: :meth:`TraceRecorder.attach` installs itself as a
  client's ``trace_sink`` — precise control over which processes are
  recorded, and the style the classifier tests use.

* **Bus tap**: :meth:`TraceRecorder.tap` subscribes to the cluster's
  svc instrumentation bus and collects the ``client_io`` records every
  :class:`~repro.pvfs.client.PVFSClient` emits when the bus has
  subscribers.  This taps *any* run — microbench, app mixes, the
  experiment drivers — without touching its code, and it is the path
  ``run_instances(record=True)`` uses.

Either way, recording is synchronous Python off the simulation's event
schedule: no simulated time passes and no events are (de)scheduled, so
a recorded run keeps the exact BLAKE2b schedule hash of an unrecorded
one.
"""

from __future__ import annotations

import typing as _t

from repro.svc.events import ServiceEvent, get_bus
from repro.workload.trace import Trace, TraceEvent

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.pvfs.client import PVFSClient


class TraceRecorder:
    """Collect the I/O requests of a run as trace IR events."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.events: list[TraceEvent] = []
        self._paths: dict[int, str] = {}
        self._detach: _t.Callable[[], None] | None = None

    # -- per-client attachment -------------------------------------------
    def attach(
        self,
        client: "PVFSClient",
        process_name: str,
        app: str = "",
        instance: int = 0,
    ) -> "PVFSClient":
        """Record ``client``'s data calls under ``process_name``;
        returns the client for chaining."""
        client.process_name = process_name
        if app:
            client.app = app
        client.instance = instance

        def sink(
            time: float,
            process: str,
            file_id: int,
            offset: int,
            nbytes: int,
            op: str,
        ) -> None:
            self.events.append(
                TraceEvent(
                    time,
                    process,
                    self._path_of(file_id),
                    op,
                    offset,
                    nbytes,
                    client.app,
                    client.instance,
                )
            )

        client.trace_sink = sink
        return client

    # -- bus tap ----------------------------------------------------------
    def tap(self) -> _t.Callable[[], None]:
        """Record every client on the cluster via the instrumentation
        bus; returns a detach callable (also kept for :meth:`close`)."""
        self._detach = get_bus(self.cluster.env).subscribe(self._on_bus_event)
        return self._detach

    def close(self) -> None:
        """Detach the bus tap, if one is active."""
        if self._detach is not None:
            self._detach()
            self._detach = None

    def _on_bus_event(self, record: ServiceEvent) -> None:
        if record.kind != "client_io":
            return
        d = record.detail
        self.events.append(
            TraceEvent(
                record.time,
                d["process"],
                self._path_of(d["file_id"]),
                d["op"],
                d["offset"],
                d["nbytes"],
                d.get("app", ""),
                d.get("instance", 0),
                stride=d.get("stride", 0),
                count=d.get("count", 1),
            )
        )

    # -- results ----------------------------------------------------------
    def _path_of(self, file_id: int) -> str:
        """Resolve a file id back to its path via the mgr namespace.

        Memoized: an id is stable for the run, and a later unlink must
        not erase the identity of already-recorded accesses.
        """
        path = self._paths.get(file_id)
        if path is None:
            for candidate, handle in self.cluster.mgr._by_path.items():
                self._paths.setdefault(handle.file_id, candidate)
            path = self._paths.get(file_id, f"/unknown/fid-{file_id}")
            self._paths[file_id] = path
        return path

    def trace(self, **meta: _t.Any) -> Trace:
        """The recording as a :class:`Trace` (``meta`` is attached)."""
        return Trace(events=list(self.events), meta=dict(meta))

    def dumps(self) -> str:
        """The recording serialized as JSONL."""
        return self.trace().dumps()

    def to_csv(self, fp: _t.TextIO) -> int:
        """The recording in the legacy CSV dialect."""
        return self.trace().dump_csv(fp)
