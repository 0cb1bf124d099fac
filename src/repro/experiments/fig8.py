"""Figure 8: can caching compensate for any loss in parallelism?

Two applications that share data must be scheduled on a 6-node
cluster.  Three options:

* **Caching, co-located** — both instances time-share nodes 0-2 with
  the cache module loaded (3 nodes used in all);
* **No caching, different nodes** — instance 0 on nodes 0-2, instance
  1 on nodes 3-5 (6 nodes used: maximum parallelism);
* **No caching, same nodes** — both instances on nodes 0-2 (expected
  worst case).

Paper's findings to reproduce:
* at l = 0 the parallelism benefit of spreading out beats
  inter-application caching;
* with higher l the caching effects offset the parallelism loss, and
  at l = 1 "caching benefits offset any loss of parallelism" — the
  scheduling-relevant crossover;
* co-locating *without* caching is always worst;
* higher sharing favours the caching option further.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, pair_point, sweep_sizes
from repro.experiments.parallel import sweep

SHARING_LEVELS = (0.25, 0.50, 0.75, 1.00)
LOCALITY_PANELS = ((0.0, "a"), (0.5, "b"), (1.0, "c"))


def run_fig8(
    quick: bool = False, total_bytes: int = 2 * 2**20
) -> list[ExperimentResult]:
    """Returns [fig8a, fig8b, fig8c] for l = 0 / 0.5 / 1.0."""
    sizes = sweep_sizes(quick)
    sharings = (0.25, 1.00) if quick else SHARING_LEVELS
    points = []
    for locality, _panel in LOCALITY_PANELS:
        for d in sizes:
            # pair_point(d, l, s, caching, p, total_bytes, cluster_nodes,
            # spread): 3-node instances on the 6-node cluster.
            for s in sharings:
                points.append((d, locality, s, True, 3, total_bytes, 6, False))
            points.append((d, locality, 0.5, False, 3, total_bytes, 6, True))
            points.append((d, locality, 0.5, False, 3, total_bytes, 6, False))
    values = iter(sweep(points, pair_point))
    results = []
    for locality, panel in LOCALITY_PANELS:
        result = ExperimentResult(
            experiment_id=f"fig8{panel}",
            title=(
                f"Caching vs parallelism, two instances, l={locality} "
                "(3 shared nodes vs 6 disjoint nodes)"
            ),
            x_label="block size (bytes)",
            y_label="total time (seconds)",
        )
        cache_series = {
            s: result.new_series(f"Caching({int(s * 100)}% sharing)")
            for s in sharings
        }
        spread = result.new_series("No Caching (2 apps on diff. nodes)")
        coloc = result.new_series("No Caching (2 apps on same nodes)")
        for d in sizes:
            for s in sharings:
                cache_series[s].add(d, next(values))
            spread.add(d, next(values))
            coloc.add(d, next(values))
        results.append(result)
    return results
