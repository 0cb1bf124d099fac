"""Figures 6 and 7: caching benefits across applications.

Two micro-benchmark instances run on the *same* p processors (each
node multiprogrammed with two processes), sharing s% of their data
through a common file.  Total data read per process is held constant,
so the x axis (request size d) trades request count against request
size and all curves trend downward.  Figure 6 uses p = 4, Figure 7
p = 2; panels (a)/(b)/(c) are l = 0 / 0.5 / 1.0.

Paper's findings to reproduce:
* even at l = 0, the caching version beats original PVFS for nearly
  all non-zero sharing percentages (one instance's misses service the
  other's requests);
* benefits grow with the degree of sharing, and with l;
* p = 4 benefits exceed p = 2 (caching scales with parallelism).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, pair_point, sweep_sizes
from repro.experiments.parallel import sweep

SHARING_LEVELS = (0.25, 0.50, 0.75, 1.00)
LOCALITY_PANELS = ((0.0, "a"), (0.5, "b"), (1.0, "c"))


def _run_figure(
    fig_id: str, p: int, quick: bool, total_bytes: int
) -> list[ExperimentResult]:
    sizes = sweep_sizes(quick)
    points = []
    for locality, _panel in LOCALITY_PANELS:
        for d in sizes:
            for s in SHARING_LEVELS:
                points.append((d, locality, s, True, p, total_bytes))
            # The no-caching version is insensitive to s ("the original
            # version will always issue network requests"): one line.
            points.append((d, locality, 0.5, False, p, total_bytes))
    values = iter(sweep(points, pair_point))
    results = []
    for locality, panel in LOCALITY_PANELS:
        result = ExperimentResult(
            experiment_id=f"{fig_id}{panel}",
            title=(
                f"Two instances reading, p={p}, l={locality} "
                "(total data per process constant)"
            ),
            x_label="block size (bytes)",
            y_label="total time (seconds)",
        )
        cache_series = {
            s: result.new_series(f"Caching({int(s * 100)}% sharing)")
            for s in SHARING_LEVELS
        }
        no_cache = result.new_series("No Caching")
        for d in sizes:
            for s in SHARING_LEVELS:
                cache_series[s].add(d, next(values))
            no_cache.add(d, next(values))
        results.append(result)
    return results


def run_fig6(
    quick: bool = False, total_bytes: int = 2 * 2**20
) -> list[ExperimentResult]:
    """Figure 6: p = 4.  Returns [fig6a, fig6b, fig6c]."""
    return _run_figure("fig6", 4, quick, total_bytes)


def run_fig7(
    quick: bool = False, total_bytes: int = 2 * 2**20
) -> list[ExperimentResult]:
    """Figure 7: p = 2.  Returns [fig7a, fig7b, fig7c]."""
    return _run_figure("fig7", 2, quick, total_bytes)
