"""Open-loop workload generation (DESIGN.md §17).

The micro-benchmark and the recorded traces are *closed loop*: each
client issues its next request only after the previous one finishes,
so a slow system is offered less load — the feedback that hides
saturation.  This module generates *open-loop* workloads, where
arrival times are decided in advance by a stochastic process and do
not slow down with the system, which is how the metadata server's
serialization point becomes visible as a throughput knee.

Everything is emitted as ordinary Trace IR with absolute timestamps
(``meta["open_loop"] = True``), so an open-loop workload composes with
:class:`~repro.workload.replay.TraceReplayer` (``preserve_timing=True``
holds each arrival to its stamp) and the analytic models for free.

Structure of a generated workload:

* **Arrivals**: :class:`PoissonArrivals`, memoryless at each process's
  share of the offered rate.
* **Popularity**: :class:`ZipfSampler` ranks the file namespace by a
  heavy-tailed Zipf(``alpha``) law, the shape CAWL-style workload
  studies report for shared storage.
* **Sharing**: each request targets the cluster-wide shared namespace
  (``/shared/f<rank>``) with probability ``sharing``, otherwise the
  process-private twin (``/p<i>/f<rank>``) — the inter-application
  sharing structure the paper's cache exploits.
* **Shape**: fixed-size contiguous requests drawn from a
  read/write/sync_write mix.

All randomness comes from ``numpy.random.default_rng`` seeded through
one :class:`numpy.random.SeedSequence` spawn per process stream, so a
workload is a deterministic function of its parameters — the same
trace serially, in parallel sweep workers, and across sessions.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.workload.replay import TraceReplayer
from repro.workload.trace import Trace, TraceEvent

#: Recognised per-file access patterns: sequential cursors (``seq``)
#: or uniformly random request-aligned offsets (``uniform``).
ACCESS_PATTERNS = ("seq", "uniform")


# -- samplers ---------------------------------------------------------------
class ZipfSampler:
    """Zipf(``alpha``) ranks over ``n`` items, clipped to [0, n).

    Draw ``r`` means "the r-th most popular file".  Draws beyond the
    namespace clip to the coldest rank.
    """

    def __init__(self, alpha: float, n: int, seed: _t.Any) -> None:
        if alpha <= 1.0:
            raise ValueError(f"zipf alpha must be > 1, got {alpha}")
        if n < 1:
            raise ValueError(f"need at least one item, got {n}")
        self.alpha = alpha
        self.n = n
        self._rng = np.random.default_rng(seed)

    def draw(self) -> int:
        """The next rank."""
        return min(int(self._rng.zipf(self.alpha)), self.n) - 1

    def draws(self, count: int) -> list[int]:
        """The next ``count`` ranks."""
        return [self.draw() for _ in range(count)]


class PoissonArrivals:
    """Exponential inter-arrival gaps at ``rate_ops_s``."""

    def __init__(self, rate_ops_s: float, seed: _t.Any) -> None:
        if rate_ops_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_ops_s}")
        self.rate_ops_s = rate_ops_s
        self._rng = np.random.default_rng(seed)

    def next_gap(self) -> float:
        """Seconds until the next arrival."""
        return float(self._rng.exponential(1.0 / self.rate_ops_s))

    def gaps(self, count: int) -> list[float]:
        """The next ``count`` inter-arrival gaps."""
        return [self.next_gap() for _ in range(count)]


# -- parameters --------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class OpenLoopParams:
    """Shape of one open-loop workload."""

    #: Independent client processes the offered load is split across.
    processes: int = 8
    #: Length of the arrival schedule (trace span), seconds.
    duration_s: float = 1.0
    #: Aggregate offered rate across all processes, ops/second.
    rate_ops_s: float = 2000.0
    #: Files per namespace (shared and each private one).
    n_files: int = 64
    #: Zipf popularity skew over the namespace (> 1).
    zipf_alpha: float = 1.3
    #: Probability a request targets the shared namespace.
    sharing: float = 0.5
    #: Probability a request opens a *fresh* file instead of drawing
    #: from the popularity distribution (namespace churn: log/temp
    #: file creation).  Every fresh open pays a metadata round trip —
    #: ``churn=1`` is the pure metadata-stress workload that exposes
    #: the mgr's serialization point.
    churn: float = 0.0
    #: Op mix; the remainder after read + write is sync_write.
    read_fraction: float = 0.65
    write_fraction: float = 0.25
    #: Bytes per request.
    request_bytes: int = 4096
    #: Logical file size; sequential per-file cursors wrap here.
    file_bytes: int = 1 << 20
    #: Offset choice within a file: ``"seq"`` advances a per-file
    #: cursor (stream-like); ``"uniform"`` draws request-aligned
    #: offsets uniformly, spreading load over every stripe (and thus
    #: every iod) instead of pounding stripe 0.
    access: str = "seq"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError(f"need >= 1 process, got {self.processes}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration_s}")
        if self.rate_ops_s <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate_ops_s}")
        if self.n_files < 1:
            raise ValueError(f"need >= 1 file, got {self.n_files}")
        if not (0.0 <= self.sharing <= 1.0):
            raise ValueError(f"sharing must be in [0,1], got {self.sharing}")
        if not (0.0 <= self.churn <= 1.0):
            raise ValueError(f"churn must be in [0,1], got {self.churn}")
        if (
            self.read_fraction < 0
            or self.write_fraction < 0
            or self.read_fraction + self.write_fraction > 1.0 + 1e-12
        ):
            raise ValueError(
                "op mix fractions must be non-negative and sum to <= 1, "
                f"got read={self.read_fraction} write={self.write_fraction}"
            )
        if self.access not in ACCESS_PATTERNS:
            raise ValueError(
                f"unknown access {self.access!r}; have {ACCESS_PATTERNS}"
            )
        if self.request_bytes <= 0:
            raise ValueError(
                f"request_bytes must be > 0, got {self.request_bytes}"
            )
        if self.file_bytes < self.request_bytes:
            raise ValueError(
                f"file of {self.file_bytes} cannot hold one request of "
                f"{self.request_bytes}"
            )

    def process_names(self) -> list[str]:
        """Client process names, in spawn (= sorted) order."""
        return [f"openloop{i:03d}" for i in range(self.processes)]


# -- generation --------------------------------------------------------------
def generate(params: OpenLoopParams) -> Trace:
    """Generate the open-loop workload trace for ``params``.

    Each process stream draws from its own spawned seed sequence, so
    streams are mutually independent yet the whole trace is a pure
    function of ``params``.
    """
    seeds = np.random.SeedSequence(params.seed).spawn(params.processes)
    size = params.request_bytes
    rate = params.rate_ops_s / params.processes
    events: list[TraceEvent] = []
    for i, name in enumerate(params.process_names()):
        arrival_seed, zipf_seed, mix_seed = seeds[i].spawn(3)
        arrivals = PoissonArrivals(rate, arrival_seed)
        popularity = ZipfSampler(
            params.zipf_alpha, params.n_files, zipf_seed
        )
        mix_rng = np.random.default_rng(mix_seed)
        cursors: dict[str, int] = {}
        fresh = 0
        t = arrivals.next_gap()
        while t <= params.duration_s:
            if params.churn and mix_rng.random() < params.churn:
                path = f"/p{i}/new{fresh}"
                fresh += 1
            else:
                rank = popularity.draw()
                shared = mix_rng.random() < params.sharing
                path = (
                    f"/shared/f{rank}" if shared else f"/p{i}/f{rank}"
                )
            draw = mix_rng.random()
            if draw < params.read_fraction:
                op = "read"
            elif draw < params.read_fraction + params.write_fraction:
                op = "write"
            else:
                op = "sync_write"
            if params.access == "uniform":
                slots = (params.file_bytes - size) // size
                cursor = int(mix_rng.integers(0, slots + 1)) * size
            else:
                cursor = cursors.get(path, 0)
                if cursor + size > params.file_bytes:
                    cursor = 0
                cursors[path] = cursor + size
            # think_s stays 0: arrivals are scheduled, not paced.
            events.append(
                TraceEvent(t, name, path, op, cursor, size, "openloop", i)
            )
            t += arrivals.next_gap()
    trace = Trace(events)
    trace.meta.update(
        {
            "open_loop": True,
            "arrival": "poisson",
            "offered_ops": len(events),
            "offered_rate_ops_s": params.rate_ops_s,
            "duration_s": params.duration_s,
            "processes": params.processes,
            "zipf_alpha": params.zipf_alpha,
            "sharing": params.sharing,
            "churn": params.churn,
            "seed": params.seed,
        }
    )
    return trace


def is_open_loop(trace: Trace) -> bool:
    """Whether ``trace`` declares itself an open-loop workload."""
    return bool(trace.meta.get("open_loop"))


def offered_load_stats(trace: Trace) -> dict[str, float]:
    """Offered-load statistics of an open-loop trace.

    Computed from the events themselves (the meta block is
    provenance, not authority): total arrivals, schedule span, the
    aggregate offered rate, and the mean per-process rate.
    """
    if not trace.events:
        return {
            "offered_ops": 0,
            "span_s": 0.0,
            "duration_s": 0.0,
            "offered_ops_per_s": 0.0,
            "per_process_ops_per_s": 0.0,
        }
    span = trace.events[-1].time - trace.events[0].time
    # The declared schedule length is the honest denominator when
    # present — the last arrival lands before the horizon, not at it.
    duration = float(trace.meta.get("duration_s") or 0.0) or span
    n = len(trace.events)
    rate = n / duration if duration > 0 else math.inf
    return {
        "offered_ops": n,
        "span_s": span,
        "duration_s": duration,
        "offered_ops_per_s": rate,
        "per_process_ops_per_s": rate / max(1, len(trace.processes)),
    }


# -- measurement --------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class OpenLoopReport:
    """Offered vs. completed load of one open-loop run."""

    offered_ops: int
    duration_s: float
    makespan_s: float
    #: Per-op latency percentiles over every completed data call.
    p50_s: float
    p95_s: float
    p99_s: float

    @property
    def offered_ops_per_s(self) -> float:
        """Arrival rate the generator scheduled."""
        return self.offered_ops / self.duration_s

    @property
    def completed_ops_per_s(self) -> float:
        """Throughput actually sustained (ops over the makespan).

        Below saturation the makespan tracks the schedule and this
        matches the offered rate; past the knee the makespan stretches
        and completed falls behind offered.
        """
        if self.makespan_s <= 0:
            return 0.0
        return self.offered_ops / self.makespan_s

    @property
    def saturated(self) -> bool:
        """Whether the run fell measurably behind its arrival schedule."""
        return self.makespan_s > 1.05 * self.duration_s


#: Latency series a data op lands in, by op kind.
_LATENCY_SERIES = (
    "client.read_latency",
    "client.write_latency",
    "client.sync_write_latency",
)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list: the smallest
    value with at least ``q`` % of the list at or below it."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def report_from_series(
    trace: Trace,
    makespan_s: float,
    series: _t.Mapping[str, _t.Sequence[float]],
) -> OpenLoopReport:
    """Fold a replay's latency series into an :class:`OpenLoopReport`."""
    latencies: list[float] = []
    for name in _LATENCY_SERIES:
        latencies.extend(series.get(name, ()))
    latencies.sort()
    duration = float(trace.meta.get("duration_s") or 0.0)
    if duration <= 0.0 and trace.events:
        duration = trace.events[-1].time
    return OpenLoopReport(
        offered_ops=len(trace.events),
        duration_s=duration,
        makespan_s=makespan_s,
        p50_s=_percentile(latencies, 50),
        p95_s=_percentile(latencies, 95),
        p99_s=_percentile(latencies, 99),
    )


def run_open_loop(
    config: ClusterConfig, params: OpenLoopParams
) -> OpenLoopReport:
    """Generate and replay one open-loop workload against ``config``.

    ``preserve_timing=True`` is what makes the replay open loop: every
    request waits for its scheduled arrival, never for its
    predecessor's completion on another stream.
    """
    trace = generate(params)
    cluster = Cluster(config)
    makespan = TraceReplayer(cluster, trace, preserve_timing=True).run()
    return report_from_series(trace, makespan, cluster.metrics.series)
