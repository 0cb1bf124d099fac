"""The micro-benchmark application (Section 4.1)."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.cluster import Cluster
from repro.sim import Process
from repro.workload.pattern import AccessPattern


@dataclasses.dataclass
class MicroBenchParams:
    """Command-line parameters of the paper's micro-benchmark.

    ``nodes`` is the node set the instance is parallelized over (its
    length is the paper's ``p``); ``request_size`` is ``d``;
    ``locality`` is ``l``; ``sharing`` is ``s``.
    """

    nodes: list[str]
    request_size: int
    iterations: int
    mode: str = "read"  # "read" | "write" | "sync_write"
    locality: float = 0.0
    sharing: float = 0.0
    instance: int = 0
    #: Bytes of each process's private partition walked by fresh
    #: requests.  Must defeat the 1.2 MB client cache (so l=0 really
    #: means all-miss) while fitting the iods' page cache.
    partition_bytes: int = 8 * 2**20
    shared_path: str = "/shared/dataset"
    private_path_template: str = "/private/instance-{instance}"
    #: Carry real bytes end-to-end (slower host-side; used by
    #: correctness tests) or run size-only (benchmarks).
    want_data: bool = False
    #: Sequentially touch the whole partition once before the timed
    #: loop (warms the iod page caches for steady-state figures).
    warmup: bool = False
    #: Mean of the exponential think time between requests (models OS
    #: scheduling noise; keeps co-scheduled instances from running in
    #: artificial lockstep).
    think_time_mean_s: float = 50e-6
    #: Each instance starts its shared-file walk this many request
    #: slots further in (wrapping): instance i begins at slot
    #: ``i * shared_stagger_slots``.  Staggered starts split the
    #: first-toucher cost between the instances; see AccessPattern.
    shared_stagger_slots: int = 2
    #: In write mode: fraction of writes issued as coherent
    #: ``sync_write`` (the paper's consistency-critical applications
    #: mix coherent and plain writes; 0.0 = all buffered, 1.0 = all
    #: coherent).
    sync_fraction: float = 0.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("instance needs at least one node")
        if self.mode not in ("read", "write", "sync_write"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not (0.0 <= self.sync_fraction <= 1.0):
            raise ValueError(
                f"sync_fraction must be in [0,1], got {self.sync_fraction}"
            )

    @property
    def p(self) -> int:
        """Degree of parallelism (number of nodes)."""
        return len(self.nodes)

    @property
    def private_path(self) -> str:
        """This instance's private file path."""
        return self.private_path_template.format(instance=self.instance)

    @property
    def total_bytes_per_process(self) -> int:
        """iterations x request_size."""
        return self.iterations * self.request_size


class MicroBenchmark:
    """Spawns one process per node of the instance."""

    def __init__(self, params: MicroBenchParams) -> None:
        self.params = params
        #: Completion time of each rank, filled as processes finish.
        self.completion_times: dict[int, float] = {}

    def spawn(self, cluster: Cluster) -> list[Process]:
        """Start all ranks; returns their processes (wait with AllOf)."""
        procs = []
        for rank, node in enumerate(self.params.nodes):
            procs.append(
                cluster.env.process(
                    self._run_rank(cluster, node, rank),
                    name=(
                        f"mb-i{self.params.instance}-r{rank}@{node}"
                    ),
                )
            )
        return procs

    def _run_rank(
        self, cluster: Cluster, node: str, rank: int
    ) -> _t.Generator:
        params = self.params
        client = cluster.client(node)
        # Stable identity (not the id()-derived default) so recorded
        # traces name ranks deterministically across runs.
        client.process_name = f"mb-i{params.instance}-r{rank}@{node}"
        client.app = "microbench"
        client.instance = params.instance
        shared = yield from client.open(params.shared_path)
        private = yield from client.open(params.private_path)
        handles = {"shared": shared, "private": private}
        pattern = AccessPattern(
            request_size=params.request_size,
            # Each rank owns a distinct partition (data parallel).  The
            # shared file's partitions are per-*rank* so co-scheduled
            # instances touch the same shared bytes on the same node.
            # The pattern seed deliberately does NOT mix in the
            # instance id: two instances of the benchmark run the same
            # binary with the same parameters (as in the paper), so
            # rank k of each instance issues the same request stream —
            # maximising the temporal overlap on the shared file.
            # Distinct params.seed values decouple them if desired.
            partition_start=rank * params.partition_bytes,
            partition_bytes=params.partition_bytes,
            locality=params.locality,
            sharing=params.sharing,
            seed=params.seed + 7919 * rank,
            shared_start_slot=params.instance * params.shared_stagger_slots,
        )
        if params.warmup:
            yield from self._warmup(cluster, client, handles, rank)
        # Scheduling jitter: unlike the access pattern, this IS
        # per-instance (it models the OS, not the program).
        import numpy as np

        jitter_rng = np.random.default_rng(
            params.seed + 31 * rank + 7907 * params.instance + 1
        )
        start = cluster.env.now
        for desc in pattern.stream(params.iterations):
            if params.think_time_mean_s > 0:
                yield cluster.env.timeout(
                    float(jitter_rng.exponential(params.think_time_mean_s))
                )
            handle = handles[desc.target]
            data = None
            if params.want_data and params.mode != "read":
                data = self._payload(desc.offset, desc.nbytes)
            if params.mode == "read":
                yield from client.read(
                    handle, desc.offset, desc.nbytes, want_data=params.want_data
                )
            elif params.mode == "write":
                if (
                    params.sync_fraction > 0.0
                    and jitter_rng.random() < params.sync_fraction
                ):
                    yield from client.sync_write(
                        handle, desc.offset, desc.nbytes, data
                    )
                else:
                    yield from client.write(
                        handle, desc.offset, desc.nbytes, data
                    )
            else:
                yield from client.sync_write(
                    handle, desc.offset, desc.nbytes, data
                )
        elapsed = cluster.env.now - start
        self.completion_times[rank] = elapsed
        cluster.metrics.record("app.completion_time", elapsed)
        return elapsed

    def _warmup(
        self, cluster: Cluster, client, handles, rank: int
    ) -> _t.Generator:
        """One sequential pass over the rank's partitions, bypassing
        the cache module, to warm the iods' page caches."""
        params = self.params
        raw = cluster.client(params.nodes[rank], use_cache=False)
        raw.record_metrics = False
        chunk = 2**20
        targets = ["private"] if params.sharing == 0 else ["private", "shared"]
        for target in targets:
            base = rank * params.partition_bytes
            pos = 0
            while pos < params.partition_bytes:
                n = min(chunk, params.partition_bytes - pos)
                if params.mode == "read":
                    yield from raw.read(handles[target], base + pos, n)
                else:
                    yield from raw.write(handles[target], base + pos, n, None)
                pos += n

    @staticmethod
    def _payload(offset: int, nbytes: int) -> bytes:
        """Deterministic bytes so readers can verify content."""
        pattern = (offset // 4096 % 251 + 1).to_bytes(1, "big")
        return pattern * nbytes

    @property
    def makespan(self) -> float:
        """Slowest rank's elapsed time (the instance's completion)."""
        if not self.completion_times:
            raise RuntimeError("benchmark has not finished")
        return max(self.completion_times.values())
