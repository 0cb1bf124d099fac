"""Workload CLI: the paper's micro-benchmark plus the trace IR tools.

Bare flags run the Section 4.1 micro-benchmark, exactly as before::

    python -m repro.workload --d 65536 --p 4 --mode read --l 0.5
    python -m repro.workload --d 4096 --p 2 --instances 2 --s 0.75

Subcommands operate on the trace IR (mirroring the
``repro.experiments`` CLI conventions)::

    python -m repro.workload record --out run.jsonl --d 4096 --p 2
    python -m repro.workload replay --trace run.jsonl --p 4 --hash
    python -m repro.workload validate --trace run.jsonl

Each subcommand has ``--help``.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from repro.cluster.config import CacheConfig, ClusterConfig, CostModel
from repro.workload.microbench import MicroBenchParams
from repro.workload.runner import run_instances

SUBCOMMANDS = ("record", "replay", "validate")


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    """Flags that size and configure the simulated cluster."""
    parser.add_argument("--p", dest="p", type=int, default=4,
                        help="nodes the application is parallelized over")
    parser.add_argument("--no-caching", action="store_true",
                        help="run the original PVFS without the cache module")
    parser.add_argument("--cache-size", type=int, default=1_200 * 1024,
                        help="per-node cache size in bytes")
    parser.add_argument("--fabric", choices=("switch", "hub"),
                        default="switch")
    parser.add_argument("--readahead", action="store_true",
                        help="enable sequential prefetching")
    parser.add_argument("--config", type=str, default=None, metavar="FILE",
                        help="JSON cluster config (overrides --p, "
                        "--cache-size, --fabric, extension flags)")


def _add_micro_args(parser: argparse.ArgumentParser) -> None:
    """Flags describing the micro-benchmark workload itself."""
    parser.add_argument("--d", "--request-size", dest="d", type=int,
                        default=65536, help="request size in bytes")
    parser.add_argument("--mode", choices=("read", "write", "sync_write"),
                        default="read")
    parser.add_argument("--iterations", type=int, default=32,
                        help="I/O requests per process")
    parser.add_argument("--l", "--locality", dest="l", type=float,
                        default=0.0, help="degree of locality in [0,1]")
    parser.add_argument("--s", "--sharing", dest="s", type=float,
                        default=0.0, help="degree of data sharing in [0,1]")
    parser.add_argument("--instances", type=int, default=1,
                        help="application instances (multiprogramming)")
    parser.add_argument("--warmup", action="store_true",
                        help="warm the iod page caches before timing")
    parser.add_argument("--seed", type=int, default=1234)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="Run the paper's customizable micro-benchmark on a "
        "simulated PVFS cluster (see also the record/replay/validate "
        "trace subcommands).",
    )
    _add_micro_args(parser)
    _add_cluster_args(parser)
    return parser


def _build_config(args: argparse.Namespace) -> ClusterConfig:
    if args.config:
        from repro.cluster.configio import load_config

        with open(args.config) as fp:
            return load_config(fp)
    return ClusterConfig(
        compute_nodes=args.p,
        iod_nodes=args.p,
        caching=not args.no_caching,
        cache=CacheConfig(
            size_bytes=args.cache_size,
            readahead=args.readahead,
        ),
        costs=CostModel(fabric=args.fabric),
    )


def _build_instances(
    args: argparse.Namespace, config: ClusterConfig
) -> list[MicroBenchParams]:
    return [
        MicroBenchParams(
            nodes=config.compute_node_names(),
            request_size=args.d,
            iterations=args.iterations,
            mode=args.mode,
            locality=args.l,
            sharing=args.s,
            instance=i,
            warmup=args.warmup,
            seed=args.seed,
        )
        for i in range(args.instances)
    ]


def _load_trace_arg(path: str, what: str = "error"):
    """Load ``--trace`` (``-`` = stdin).  A file that cannot be opened
    or parsed prints one ``<what>: <path>: <reason>`` line to stderr
    and returns ``None``: the caller exits non-zero, with no traceback.
    """
    from repro.workload.trace import TraceFormatError, load, load_path

    try:
        if path == "-":
            return load(sys.stdin)
        return load_path(path)
    except (TraceFormatError, OSError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"{what}: {path}: {reason}", file=sys.stderr)
        return None


# -- subcommands -----------------------------------------------------------
def _cmd_record(argv: _t.Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload record",
        description="Run the micro-benchmark and record its request "
        "stream as a versioned JSONL trace.",
    )
    parser.add_argument("--out", type=str, default="-", metavar="FILE",
                        help="trace output path ('-' = stdout)")
    _add_micro_args(parser)
    _add_cluster_args(parser)
    args = parser.parse_args(argv)
    if args.p < 1 or args.instances < 1:
        print("error: --p and --instances must be >= 1", file=sys.stderr)
        return 2
    config = _build_config(args)
    outcome = run_instances(config, _build_instances(args, config), record=True)
    assert outcome.trace is not None
    if args.out == "-":
        outcome.trace.dump_jsonl(sys.stdout)
    else:
        with open(args.out, "w") as fp:
            outcome.trace.dump_jsonl(fp)
    print(
        f"recorded {len(outcome.trace)} events from "
        f"{len(outcome.trace.processes)} processes "
        f"(content hash {outcome.trace.content_hash()})",
        file=sys.stderr,
    )
    return 0


def _cmd_replay(argv: _t.Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload replay",
        description="Replay a recorded/imported trace against a "
        "(possibly different) cluster configuration.",
    )
    parser.add_argument("--trace", type=str, required=True, metavar="FILE",
                        help="JSONL trace to replay ('-' = stdin)")
    parser.add_argument("--open-loop", action="store_true",
                        help="preserve the trace's original request "
                        "timing (default: closed loop, think times only)")
    parser.add_argument("--hash", action="store_true",
                        help="print the replay's BLAKE2b schedule hash")
    _add_cluster_args(parser)
    args = parser.parse_args(argv)
    if args.p < 1:
        print("error: --p must be >= 1", file=sys.stderr)
        return 2
    from repro.cluster.cluster import Cluster
    from repro.workload.replay import TraceReplayer

    trace = _load_trace_arg(args.trace)
    if trace is None:
        return 2
    cluster = Cluster(_build_config(args))
    if args.hash:
        cluster.env.enable_trace_hash()
    replayer = TraceReplayer(
        cluster, trace, preserve_timing=args.open_loop
    )
    makespan = replayer.run()
    print(f"replayed {len(trace)} events "
          f"({'open' if args.open_loop else 'closed'} loop)")
    print(f"  makespan             : {makespan:.6f} s")
    for process in sorted(replayer.completion):
        print(f"  {process:<20} : {replayer.completion[process]:.6f} s")
    hits = cluster.metrics.count("cache.hits")
    misses = cluster.metrics.count("cache.misses")
    if hits + misses:
        print(f"  cache hits/misses    : {hits}/{misses}  "
              f"(hit ratio {hits / (hits + misses):.2%})")
    if args.hash:
        print(f"  schedule trace hash  : {cluster.env.trace_hash()}")
    return 0


def _cmd_validate(argv: _t.Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload validate",
        description="Validate a trace file and summarize it.  Exit "
        "status 1 when issues are found.",
    )
    parser.add_argument("--trace", type=str, required=True, metavar="FILE",
                        help="JSONL trace to validate ('-' = stdin)")
    args = parser.parse_args(argv)
    from repro.workload.openloop import is_open_loop, offered_load_stats
    from repro.workload.trace import validate_trace

    trace = _load_trace_arg(args.trace, "invalid trace")
    if trace is None:
        return 1
    ops = trace.op_counts()
    span = (
        trace.events[-1].time - trace.events[0].time if trace.events else 0.0
    )
    print(f"trace: {len(trace)} events, {len(trace.processes)} processes, "
          f"{len(trace.paths)} paths, span {span:.6f} s")
    print(f"  ops                  : " +
          "  ".join(f"{op}={n}" for op, n in ops.items()))
    strided = sum(1 for e in trace.events if e.is_list)
    if strided:
        print(f"  strided/list events  : {strided}")
    print(f"  content hash         : {trace.content_hash()}")
    if trace.meta:
        print(f"  meta                 : {trace.meta}")
    if is_open_loop(trace):
        # An open-loop trace is an arrival schedule: summarize its
        # offered load instead of judging it by closed-loop standards.
        load = offered_load_stats(trace)
        print(f"  offered load         : "
              f"{load['offered_ops']} arrivals over the "
              f"{load['duration_s']:.6f} s schedule "
              f"= {load['offered_ops_per_s']:.1f} ops/s "
              f"({load['per_process_ops_per_s']:.1f} per process)")
    issues = validate_trace(trace)
    for issue in issues:
        print(f"  ISSUE: {issue}", file=sys.stderr)
    return 1 if issues else 0


def main(argv: _t.Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        handler = {
            "record": _cmd_record,
            "replay": _cmd_replay,
            "validate": _cmd_validate,
        }[argv[0]]
        return handler(argv[1:])
    args = build_parser().parse_args(argv)
    if args.p < 1 or args.instances < 1:
        print("error: --p and --instances must be >= 1", file=sys.stderr)
        return 2
    config = _build_config(args)
    outcome = run_instances(config, _build_instances(args, config))

    version = "caching" if config.caching else "no caching"
    print(f"micro-benchmark ({version} version)")
    print(f"  d={args.d}  p={config.compute_nodes}  mode={args.mode}  "
          f"l={args.l}  s={args.s}  instances={args.instances}  "
          f"iterations={args.iterations}")
    print(f"  total simulated time : {outcome.total_time:.6f} s")
    for inst in outcome.instances:
        print(f"  instance {inst.instance} makespan: "
              f"{inst.makespan:.6f} s")
    if args.mode == "read":
        print(f"  mean time per read   : {outcome.mean_read_latency:.6f} s")
    else:
        latency = (
            outcome.mean_write_latency
            if args.mode == "write"
            else outcome.cluster.metrics.mean("client.sync_write_latency")
        )
        print(f"  mean time per {args.mode:<5}: {latency:.6f} s")
    if config.caching:
        hits = outcome.counter("cache.hits")
        misses = outcome.counter("cache.misses")
        total = hits + misses
        print(f"  cache hits/misses    : {hits}/{misses}"
              + (f"  (hit ratio {hits / total:.2%})" if total else ""))
        print(f"  faked iod acks       : {outcome.counter('cache.faked_acks')}")
        print(f"  blocks flushed       : "
              f"{outcome.counter('flusher.blocks_cleaned')}")
        if args.readahead:
            print(f"  blocks prefetched    : "
                  f"{outcome.counter('prefetch.completed')}")
    print(f"  iod page-cache hits  : "
          f"{outcome.counter('iod.pagecache_hits')}")
    print(f"  bytes over the wire  : "
          f"{outcome.cluster.network.fabric.bytes_transferred}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
