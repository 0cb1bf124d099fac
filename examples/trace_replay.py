"""Record a workload's I/O trace, then replay it under different policies.

The paper's closing lament is the lack of benchmarks "containing groups
of applications sharing data".  The trace IR fills that gap: this
example records the request stream of a two-application sharing
workload into the versioned JSONL format and replays the *identical*
workload against three cluster configurations to compare policies
apples-to-apples:

* original PVFS (no caching),
* the paper's kernel cache module,
* the cache module + the readahead extension.

Run:  python examples/trace_replay.py
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.workload import TraceRecorder, TraceReplayer
from repro.workload.trace import loads

STEP = 32 * 1024
STEPS = 12


def record_workload() -> str:
    """Run a two-app producer/consumer + scanning mix; return its JSONL."""
    cluster = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=2))
    recorder = TraceRecorder(cluster)
    recorder.tap()
    producer = cluster.client("node0")
    scanner = cluster.client("node0")
    scanner2 = cluster.client("node1")
    producer.process_name = "producer"
    scanner.process_name = "scanner"
    scanner2.process_name = "scanner-2"

    def produce(env):
        f = yield from producer.open("/dataset")
        for step in range(STEPS):
            yield from producer.write(f, step * STEP, STEP, None)
            yield env.timeout(2e-3)

    def scan(env, client, lag):
        yield env.timeout(lag)
        f = yield from client.open("/dataset")
        for step in range(STEPS):
            yield from client.read(f, step * STEP, STEP)
            yield env.timeout(1e-3)

    env = cluster.env
    procs = [
        env.process(produce(env)),
        env.process(scan(env, scanner, 5e-3)),
        env.process(scan(env, scanner2, 8e-3)),
    ]
    env.run(until=env.all_of(procs))
    return recorder.dumps()


def replay(trace_text: str, label: str, config: ClusterConfig) -> float:
    trace = loads(trace_text)
    cluster = Cluster(config)
    makespan = TraceReplayer(cluster, trace, preserve_timing=True).run()
    read_lat = cluster.metrics.mean("client.read_latency")
    write_lat = cluster.metrics.mean("client.write_latency")
    print(
        f"  {label:<34} makespan {makespan * 1e3:7.1f} ms   "
        f"read {read_lat * 1e3:6.2f} ms   write {write_lat * 1e3:5.2f} ms"
    )
    return makespan


def main() -> None:
    trace_text = record_workload()
    trace = loads(trace_text)
    print(f"recorded {len(trace)} requests from "
          f"{len(trace.processes)} processes (JSONL, content hash "
          f"{trace.content_hash()});")
    print("replaying the identical stream (original arrival times) under")
    print("three policies, on a cluster with cold iod page caches:\n")
    replay(
        trace_text,
        "original PVFS (no caching)",
        ClusterConfig(
            compute_nodes=2, iod_nodes=2, caching=False, pagecache_blocks=0
        ),
    )
    replay(
        trace_text,
        "kernel cache module (paper)",
        ClusterConfig(
            compute_nodes=2, iod_nodes=2, caching=True, pagecache_blocks=0
        ),
    )
    replay(
        trace_text,
        "cache module + readahead",
        ClusterConfig(
            compute_nodes=2,
            iod_nodes=2,
            caching=True,
            pagecache_blocks=0,
            cache=CacheConfig(readahead=True),
        ),
    )
    print("\nSame byte-for-byte request stream each time — the policy")
    print("differences are the whole story.  (Readahead loses here: its")
    print("window runs past the end of the dataset, so the cold iod disks")
    print("also read blocks that no scanner asks for.)")


if __name__ == "__main__":
    main()
