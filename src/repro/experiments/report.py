"""Render every reproduced figure as a text table.

Usage::

    python -m repro.experiments [--quick] [--only fig4,fig8]
"""

from __future__ import annotations

import argparse
import sys
import time
import typing as _t

from repro.cluster.config import ClusterConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig67 import run_fig6, run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.overhead import run_overhead
from repro.experiments.parallel import resolve_workers
from repro.experiments.sensitivity import (
    run_block_size_sweep,
    run_cache_size_sweep,
    run_multiprogramming_sweep,
)

RUNNERS: dict[str, _t.Callable[[bool], list[ExperimentResult]]] = {
    "overhead": lambda quick: [run_overhead()],
    "fig4": lambda quick: list(run_fig4(quick)),
    "fig5": lambda quick: list(run_fig5(quick)),
    "fig6": lambda quick: run_fig6(quick),
    "fig7": lambda quick: run_fig7(quick),
    "fig8": lambda quick: run_fig8(quick),
    "sensitivity": lambda quick: [
        run_cache_size_sweep(
            (600, 1200, 2400) if quick else (300, 600, 1200, 2400, 4800)
        ),
        run_multiprogramming_sweep((1, 2) if quick else (1, 2, 3)),
        run_block_size_sweep(),
    ],
    "extensions": lambda quick: _run_extensions(quick),
    "scaling": lambda quick: _run_scaling(quick),
}


def _run_scaling(quick: bool) -> "list[ExperimentResult]":
    from repro.experiments.scaling import run_scaling

    return [run_scaling(quick)]


def _run_extensions(quick: bool) -> "list[ExperimentResult]":
    from repro.experiments.extensions import (
        run_coherence_sweep,
        run_readahead_experiment,
        run_straggler_experiment,
    )

    return [
        run_coherence_sweep((0.0, 0.5, 1.0) if quick else (0.0, 0.25, 0.5, 0.75, 1.0)),
        run_readahead_experiment((0.0, 2e-3) if quick else (0.0, 1e-3, 2e-3, 4e-3)),
        run_straggler_experiment((1.0, 8.0) if quick else (1.0, 4.0, 16.0)),
    ]

#: The paper's own figures (sensitivity sweeps are our extension and
#: are only run when asked for explicitly).
DEFAULT_SET = ["overhead", "fig4", "fig5", "fig6", "fig7", "fig8"]


def daemon_summary(stream: _t.TextIO = sys.stdout, mgr_shards: int = 1) -> str:
    """Run a small shared-read workload and print what each daemon did.

    Exercises every service in the runtime — mgr opens, iod reads and
    writes, flusher batches, invalidations (via a sync_write), and the
    writeback daemons — on a cluster of ``mgr_shards`` metadata
    shards, then renders each daemon's always-on stats, the fabric's
    and the scheduler's counters.
    """
    from repro.cluster.cluster import Cluster
    from repro.metrics import daemon_table, mgr_shard_table
    from repro.svc import ServiceEvent, get_bus

    cluster = Cluster(
        ClusterConfig(compute_nodes=2, iod_nodes=2, mgr_shards=mgr_shards)
    )
    bus = get_bus(cluster.env)
    # The one count no ServiceStats holds: invalidation notices an iod
    # fans out, charged to the mgr shard owning the file.  The cache
    # module's receive-side records carry no shard and stay out.
    fanout: dict[int, int] = {}

    def count_fanout(record: ServiceEvent) -> None:
        if "mgr_shard" in record.detail:
            shard = record.detail["mgr_shard"]
            fanout[shard] = fanout.get(shard, 0) + 1

    detach = bus.subscribe(count_fanout, kinds=("invalidation",))

    def app(node: str, path: str) -> _t.Generator:
        client = cluster.client(node)
        handle = yield from client.open(path)
        yield from client.write(handle, 0, 256 * 1024)
        yield from client.read(handle, 0, 256 * 1024)
        yield from client.sync_write(handle, 0, 64 * 1024)

    procs = [
        cluster.env.process(app(node, "/data/shared"))
        for node in cluster.compute_nodes
    ]
    cluster.env.run(until=cluster.env.all_of(procs))
    cluster.env.run(until=cluster.env.process(cluster.drain_caches()))
    detach()

    table = daemon_table(bus)
    dispatches = sum(
        sum(stats.dispatched.values()) for stats in bus.stats.values()
    )
    net = cluster.network.stats_snapshot()
    sched = cluster.env.sched_stats()
    print(table, file=stream)
    print("\nmetadata shards:", file=stream)
    print(mgr_shard_table(bus, cluster.env.now, fanout), file=stream)
    print(f"\n[{dispatches} dispatches counted by ServiceStats]", file=stream)
    print(
        "[network: {model}, {messages_delivered} messages, "
        "{bytes_transferred} bytes, wire busy {wire_busy_s:.4f}s]".format(
            **net
        ),
        file=stream,
    )
    print(
        "[scheduler: {events_processed} events ({turns_in_place} taken "
        "in place), depth hw {queue_depth_hw}]".format(**sched),
        file=stream,
    )
    return table


def run_all(
    quick: bool = False,
    only: _t.Sequence[str] | None = None,
    stream: _t.TextIO = sys.stdout,
    charts: bool = False,
) -> list[ExperimentResult]:
    """Run the chosen experiments, printing each table."""
    chosen = list(only) if only else list(DEFAULT_SET)
    unknown = [name for name in chosen if name not in RUNNERS]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; have {list(RUNNERS)}")
    all_results: list[ExperimentResult] = []
    for name in chosen:
        t0 = time.time()
        results = RUNNERS[name](quick)
        elapsed = time.time() - t0
        for result in results:
            print(result.to_table(), file=stream)
            print("", file=stream)
            if charts:
                from repro.experiments.plots import render_chart

                print(render_chart(result), file=stream)
                print("", file=stream)
        print(f"[{name}: {elapsed:.1f}s]", file=stream)
        print("", file=stream)
        all_results.extend(results)
    return all_results


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures as text tables.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps (~1-2 min)"
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        help=f"comma-separated subset of {list(RUNNERS)}",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="also render each figure as a terminal chart",
    )
    parser.add_argument(
        "--daemons",
        action="store_true",
        help="run a small workload and print the per-daemon summary",
    )
    parser.add_argument(
        "--mgr-shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --daemons: hash-partition the PVFS metadata namespace "
            "across N mgr shards (DESIGN.md §17); 1 (the default) is the "
            "paper's single mgr"
        ),
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help=(
            "run under cProfile and print the top N functions by "
            "cumulative time (default 25)"
        ),
    )
    args = parser.parse_args(argv)
    if args.mgr_shards is not None:
        if args.mgr_shards < 1:
            parser.error(f"--mgr-shards must be >= 1, got {args.mgr_shards}")
        if not args.daemons:
            # Each figure sets its own clusters' shard count.
            parser.error("--mgr-shards applies only to --daemons")
    if args.daemons:
        # --daemons runs no figure.
        for flag, given in (
            ("--only", args.only is not None),
            ("--quick", args.quick),
            ("--charts", args.charts),
        ):
            if given:
                parser.error(f"{flag} does not apply to --daemons")
    # A bad environment value fails here, naming it, not as a traceback
    # from the first sweep.
    try:
        resolve_workers()
    except ValueError as exc:
        parser.error(str(exc))

    def run() -> None:
        if args.daemons:
            daemon_summary(mgr_shards=args.mgr_shards or 1)
        else:
            only = args.only.split(",") if args.only else None
            run_all(quick=args.quick, only=only, charts=args.charts)

    if not args.profile:
        run()
        return 0
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative")
        print(f"\n=== cProfile: top {args.profile} by cumulative time ===")
        stats.print_stats(args.profile)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
