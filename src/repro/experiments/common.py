"""Shared result containers and sweep helpers for the experiments."""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.cluster.config import CacheConfig, ClusterConfig, CostModel
from repro.workload import MicroBenchParams, RunOutcome, run_instances


@dataclasses.dataclass
class SeriesPoint:
    """One (x, y) measurement with optional auxiliary values."""

    x: float
    y: float
    extra: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Series:
    """One labelled curve of a figure."""

    label: str
    points: list[SeriesPoint] = dataclasses.field(default_factory=list)

    def add(self, x: float, y: float, **extra: float) -> None:
        """Append an (x, y) point with optional extras."""
        self.points.append(SeriesPoint(x=x, y=y, extra=dict(extra)))

    def y_at(self, x: float) -> float:
        """The y value at ``x`` (KeyError if absent).

        Matches with ``math.isclose`` rather than exact equality so
        x-values recomputed in sweep worker processes (or read back
        from serialized results) round-trip safely.
        """
        for point in self.points:
            if math.isclose(point.x, x, rel_tol=1e-9, abs_tol=1e-12):
                return point.y
        raise KeyError(f"no point at x={x} in series {self.label!r}")

    @property
    def xs(self) -> list[float]:
        """All x values in insertion order."""
        return [p.x for p in self.points]

    @property
    def ys(self) -> list[float]:
        """All y values in insertion order."""
        return [p.y for p in self.points]


@dataclasses.dataclass
class ExperimentResult:
    """A reproduced figure: several series over a common x-axis."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = dataclasses.field(default_factory=list)
    notes: str = ""

    def get(self, label: str) -> Series:
        """The series labelled ``label`` (KeyError if absent)."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"no series {label!r}; have {[s.label for s in self.series]}"
        )

    def new_series(self, label: str) -> Series:
        """Create, register and return a series."""
        s = Series(label=label)
        self.series.append(s)
        return s

    def to_table(self) -> str:
        """Render as an aligned text table, one row per x value."""
        xs: list[float] = []
        for s in self.series:
            for x in s.xs:
                if x not in xs:
                    xs.append(x)
        xs.sort()
        headers = [self.x_label] + [s.label for s in self.series]
        rows: list[list[str]] = []
        for x in xs:
            row = [_fmt_x(x)]
            for s in self.series:
                try:
                    row.append(f"{s.y_at(x):.6f}")
                except KeyError:
                    row.append("-")
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"   (y = {self.y_label})",
            "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        ]
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"   note: {self.notes}")
        return "\n".join(lines)


def _fmt_x(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


#: The paper sweeps request sizes 1 KB .. 1 MB (x axes of Figs 4-8).
FULL_SIZES = [1024, 4096, 16384, 65536, 262144, 1048576]
QUICK_SIZES = [4096, 65536, 262144]


def sweep_sizes(quick: bool) -> list[int]:
    """The request-size sweep (quick or full)."""
    return QUICK_SIZES if quick else FULL_SIZES


def single_point(
    d: int,
    mode: str,
    caching: bool,
    locality: float,
    p: int = 4,
    iterations: int = 16,
    cache: CacheConfig | None = None,
    costs: CostModel | None = None,
    measure: _t.Callable[[RunOutcome], _t.Any] | None = None,
) -> _t.Any:
    """One micro-benchmark instance on its own p-node cluster: the mean
    time per request (the y value of Figs 4/5), or ``measure(outcome)``
    for a row that reads something else off the run."""
    config = ClusterConfig(
        compute_nodes=p,
        iod_nodes=p,
        caching=caching,
        cache=cache or CacheConfig(),
        costs=costs or CostModel(),
    )
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=d,
        iterations=iterations,
        mode=mode,
        locality=locality,
        partition_bytes=4 * 2**20,
        warmup=(mode == "read"),
    )
    out = run_instances(config, [params])
    if measure is not None:
        return measure(out)
    return out.mean_read_latency if mode == "read" else out.mean_write_latency


def pair_point(
    d: int,
    locality: float,
    sharing: float,
    caching: bool,
    p: int = 4,
    total_bytes: int = 2 * 2**20,
    cluster_nodes: int | None = None,
    spread: bool = False,
) -> float:
    """Makespan of two concurrent reading instances: the y value of
    Figs 6-8.

    Both instances time-share the first ``p`` nodes of a
    ``cluster_nodes``-node cluster (default ``p``); with ``spread`` the
    second runs on the next ``p`` nodes instead (Fig 8's placements).
    Total data per process is held constant at ``total_bytes``.
    """
    n = cluster_nodes or p
    config = ClusterConfig(compute_nodes=n, iod_nodes=n, caching=caching)
    nodes = config.compute_node_names()
    node_sets = [nodes[:p], nodes[p : 2 * p] if spread else nodes[:p]]
    instances = [
        MicroBenchParams(
            nodes=node_sets[i],
            request_size=d,
            iterations=max(1, total_bytes // d),
            mode="read",
            locality=locality,
            sharing=sharing,
            instance=i,
            partition_bytes=4 * 2**20,
            warmup=True,
            seed=42,
        )
        for i in range(2)
    ]
    return run_instances(config, instances).makespan
