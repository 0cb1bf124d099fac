"""Figure 4: caching overhead with no locality (worst case).

One micro-benchmark instance, p = 4, l = 0 (every request misses the
client cache), request size swept 1 KB .. 1 MB.  Plots the mean time
per read (a) / write (b) request for the caching and no-caching PVFS
versions.

Paper's findings to reproduce:
* reads: "the differences between the two are not very significant" —
  the caching module's overhead is small even when it never hits;
* writes: "the caching version performs better than the original
  version (with the differences being much more prominent for smaller
  d values)" — write-behind absorbs the writes; "when d becomes large,
  the writes may need to block for availability of cache space,
  lessening the differences".
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, single_point, sweep_sizes
from repro.experiments.parallel import sweep


def run_fig4(
    quick: bool = False, p: int = 4
) -> tuple[ExperimentResult, ExperimentResult]:
    """Returns (fig4a_reads, fig4b_writes)."""
    sizes = sweep_sizes(quick)
    points = []
    for _panel, mode in (("fig4a", "read"), ("fig4b", "write")):
        for d in sizes:
            # Keep per-point simulated work bounded: fewer loop
            # iterations at the largest request sizes (the paper holds
            # the loop count user-configurable).
            iterations = 32 if d <= 262144 else (8 if quick else 16)
            for caching in (True, False):
                points.append((d, mode, caching, 0.0, p, iterations))
    values = iter(sweep(points, single_point))
    results = []
    for panel, mode in (("fig4a", "read"), ("fig4b", "write")):
        result = ExperimentResult(
            experiment_id=panel,
            title=(
                f"Caching overhead, single instance, p={p}, l=0 "
                f"({mode}s)"
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
    results[0].notes = (
        "l=0: every request misses; caching should track no-caching "
        "closely (pure overhead)."
    )
    results[1].notes = (
        "write-behind wins at small d; differences shrink as d "
        "approaches the cache size."
    )
    return results[0], results[1]
