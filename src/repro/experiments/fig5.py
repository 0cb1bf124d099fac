"""Figure 5: caching benefit with perfect locality (best case).

Identical setup to Figure 4 but l = 1.0: after the first touch every
request re-reads cached data.  The paper finds "substantial benefits
from caching ... for both reads and writes ... increas[ing] with
larger request sizes", with the caching overhead only visible at very
small request sizes (8 KB or less).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, single_point, sweep_sizes
from repro.experiments.parallel import sweep


def run_fig5(
    quick: bool = False, p: int = 4
) -> tuple[ExperimentResult, ExperimentResult]:
    """Returns (fig5a_reads, fig5b_writes)."""
    sizes = sweep_sizes(quick)
    points = []
    for mode in ("read", "write"):
        for d in sizes:
            iterations = 32 if d <= 262144 else 16
            for caching in (True, False):
                points.append((d, mode, caching, 1.0, p, iterations))
    values = iter(sweep(points, single_point))
    results = []
    for panel, mode in (("fig5a", "read"), ("fig5b", "write")):
        result = ExperimentResult(
            experiment_id=panel,
            title=(
                f"Caching benefit, single instance, p={p}, l=1 ({mode}s)"
            ),
            x_label=f"{mode} size (bytes)",
            y_label="time per request (seconds)",
        )
        with_cache = result.new_series("Caching")
        without = result.new_series("No Caching")
        for d in sizes:
            with_cache.add(d, next(values))
            without.add(d, next(values))
        results.append(result)
    results[0].notes = "l=1: requests hit the cache; wins grow with d."
    results[1].notes = "l=1 writes: re-dirtying cached blocks is pure memcpy."
    return results[0], results[1]
