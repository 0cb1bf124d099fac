"""Tracing for the traced pass, installed from outside the program.

Two instruments, both schedule-neutral (they create no events, so the
traced pass must reproduce the timed pass's event count, makespan and
simulated metrics bit for bit):

* **Spans** - class-level pass-through wrappers around the calls into
  each layer.  Generator methods are wrapped with ``yield from`` (the
  span covers simulated time; host time is not attributable while a
  generator is suspended), plain methods are timed in host ns.  Each
  span records name, simulated start/end, host ns, and its parent
  *within the same simulated process*; linking across processes needs
  request ids inside the program (a later issue).  Spans stay in
  memory and are written out when the run ends.
* **Host-time sampler** - a thread that every 2 ms looks at the main
  thread's stack and buckets the innermost ``repro.<package>`` frame,
  giving ``<layer>.host_share`` (shares sum to 1).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
import typing as _t

from bench.metrics import HOST_SHARE_LAYERS
from repro.cache.manager import BufferManager
from repro.cache.module import CacheModule
from repro.disk import DiskModel, PageCache, QueuedDiskModel
from repro.pvfs.client import PVFSClient
from repro.svc import RpcChannel, Service

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment

SAMPLE_PERIOD_S = 0.002

#: (class, method, is_generator).  ``Service.dispatch`` spans are named
#: after the daemon class and the message kind, which separates the
#: iod, mgr, writeback and invalidation handlers.
_TARGETS: tuple[tuple[type, str, bool], ...] = (
    *((PVFSClient, m, True)
      for m in ("open", "read", "write", "sync_write", "readv", "writev")),
    *((CacheModule, m, True) for m in ("read", "write", "sync_write")),
    (BufferManager, "get_or_allocate", True),
    (BufferManager, "select_victims", False),
    (Service, "dispatch", True),
    (RpcChannel, "call", False),
    (DiskModel, "io", True),
    (DiskModel, "io_batch", True),
    (QueuedDiskModel, "io", True),
    (QueuedDiskModel, "io_batch", True),
    (PageCache, "lookup_many", False),
)

# Span record layout: [name, process, parent, sim_start, sim_end, host_ns]
_NAME, _PROC, _PARENT, _START, _END, _HOST = range(6)


class Tracer:
    """Collects spans from the installed wrappers for one environment."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.spans: list[list] = []
        #: Open span indexes per simulated process (innermost last).
        self._stacks: dict[_t.Any, list[int]] = {}
        #: Every RPC channel that carried a call (for timeout totals).
        self.channels: set[RpcChannel] = set()

    def begin(self, name: str) -> tuple[int, _t.Any]:
        """Open a span under the running process's innermost one."""
        process = self.env.active_process
        stack = self._stacks.get(process)
        if stack is None:
            stack = self._stacks[process] = []
        index = len(self.spans)
        self.spans.append([
            name,
            process.name if process is not None else "",
            stack[-1] if stack else -1,
            self.env.now,
            None,
            0,
        ])
        stack.append(index)
        return index, process

    def end(self, token: tuple[int, _t.Any], host_ns: int = 0) -> None:
        # The token carries the process: a killed daemon's generator is
        # closed from outside it, when ``active_process`` is another.
        index, process = token
        span = self.spans[index]
        span[_END] = self.env.now
        span[_HOST] = host_ns
        stack = self._stacks[process]
        stack.pop()
        if not stack:
            del self._stacks[process]

    # -- aggregation -------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, simulated seconds, host seconds)."""
        out: dict[str, list[float]] = {}
        for name, _proc, _parent, start, end, host_ns in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end if end is not None else self.env.now) - start
            row[2] += host_ns / 1e9
        return {name: (int(c), s, h) for name, (c, s, h) in out.items()}

    def dump(self, path: str) -> int:
        """Write one JSON object per span; returns the span count."""
        with open(path, "w") as fp:
            for index, span in enumerate(self.spans):
                fp.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[_NAME],
                            "process": span[_PROC],
                            "parent": span[_PARENT],
                            "sim_start": span[_START],
                            "sim_end": span[_END],
                            "host_ns": span[_HOST],
                        }
                    )
                )
                fp.write("\n")
        return len(self.spans)


def _span_name(owner: type, method: str, self: _t.Any, args: tuple) -> str:
    if owner is Service:
        return f"svc.dispatch/{type(self).__name__}/{args[0].kind}"
    return f"{owner.__name__}.{method}"


def _wrap(tracer: Tracer, owner: type, method: str, is_generator: bool):
    original = vars(owner)[method]

    if is_generator:

        @functools.wraps(original)
        def traced(self, *args, **kwargs):
            token = tracer.begin(_span_name(owner, method, self, args))
            try:
                return (yield from original(self, *args, **kwargs))
            finally:
                tracer.end(token)

    else:

        @functools.wraps(original)
        def traced(self, *args, **kwargs):
            if owner is RpcChannel:
                tracer.channels.add(self)
            token = tracer.begin(_span_name(owner, method, self, args))
            started = time.perf_counter_ns()
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.end(token, time.perf_counter_ns() - started)

    return original, traced


@contextlib.contextmanager
def installed(env: "Environment") -> _t.Iterator[Tracer]:
    """Patch the span wrappers in for the duration of the block."""
    tracer = Tracer(env)
    originals = []
    for owner, method, is_generator in _TARGETS:
        original, traced = _wrap(tracer, owner, method, is_generator)
        originals.append((owner, method, original))
        setattr(owner, method, traced)
    try:
        yield tracer
    finally:
        for owner, method, original in originals:
            setattr(owner, method, original)


def _bucket(frame: _t.Any) -> str:
    """Layer of the innermost frame that is the program's or ours."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            layer = module.split(".")[1]
            return layer if layer in HOST_SHARE_LAYERS else "other"
        if module.startswith("bench"):
            return "other"
        frame = frame.f_back
    return "other"


class Sampler:
    """Context manager: sample the calling thread's stack while open."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(HOST_SHARE_LAYERS, 0)
        self._stop = threading.Event()
        self._target = threading.get_ident()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            frame = sys._current_frames().get(self._target)
            self.counts[_bucket(frame)] += 1

    def __enter__(self) -> "Sampler":
        # The sampler only runs when the main thread yields the GIL;
        # at the default 5 ms switch interval most 2 ms ticks are lost.
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_PERIOD_S / 2)
        self._thread.start()
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        """``<layer>.host_share`` for every bucket (sums to 1)."""
        total = self.samples or 1
        return {
            f"{layer}.host_share": count / total
            for layer, count in self.counts.items()
        }
