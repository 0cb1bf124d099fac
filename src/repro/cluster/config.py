"""Configuration and calibration constants.

Everything here is calibrated to the paper's testbed (Section 4.1): a
6-node Linux cluster of 800 MHz Pentium-III boxes with 128 MB RAM,
20 GB Maxtor IDE disks, and 100 Mbps Ethernet, with a 1.2 MB cache of
4 KB blocks at each node.

The constants are grouped into one :class:`CostModel` so that every
timing assumption is visible, overridable, and sweepable in ablation
benchmarks.
"""

from __future__ import annotations

import dataclasses
import os

#: Environment variable selecting the default disk model for clusters
#: whose config leaves ``disk_model`` unset (``mech`` or ``queued``).
#: Lets ``python -m repro.experiments --disk-model queued`` reach every
#: cluster built inside parallel sweep workers.
DISK_MODEL_ENV_VAR = "REPRO_DISK_MODEL"

#: Recognised disk models: ``mech`` simulates each request against a
#: capacity-1 spindle Resource (the validated default), ``queued``
#: computes batch service times against an analytic FIFO queue
#: (DESIGN.md §13).
DISK_MODELS = ("mech", "queued")

#: Environment variable naming a workload trace file (JSONL or CSV
#: dialect) to replay *instead of* the synthetic micro-benchmark, for
#: configs whose ``trace_source`` is unset.  Like ``REPRO_DISK_MODEL``,
#: this is how ``--trace`` reaches every ``run_instances`` call,
#: including inside parallel sweep workers — so the fig4-8 drivers can
#: all be pointed at one recorded workload.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Environment variable selecting how many hash-partitioned metadata
#: server shards a cluster runs, for configs whose ``mgr_shards`` is
#: unset.  ``1`` (or unset) keeps the paper's single mgr — and the
#: schedule bit-identical to it; like ``REPRO_DISK_MODEL``, this is
#: how ``--mgr-shards`` reaches clusters built inside parallel sweep
#: workers.
MGR_SHARDS_ENV_VAR = "REPRO_MGR_SHARDS"


@dataclasses.dataclass
class CostModel:
    """All timing constants of the simulation, in seconds/bytes."""

    # -- network -----------------------------------------------------------
    #: Link (or hub) bandwidth, bits per second.
    bandwidth_bps: float = 100e6
    #: Fragmentation quantum for fair sharing of a channel.
    frame_bytes: int = 65536
    #: Fixed per-message cost: interrupt + protocol stack + propagation.
    net_latency_s: float = 100e-6
    #: "hub" for one shared collision domain, "switch" for per-port links.
    fabric: str = "switch"

    # -- disk ----------------------------------------------------------------
    avg_seek_s: float = 8.5e-3
    half_rotation_s: float = 5.6e-3
    disk_bytes_per_s: float = 20e6

    # -- CPU costs (800 MHz P-III era) --------------------------------------
    #: Entering/leaving the kernel for a socket call.
    syscall_s: float = 10e-6
    #: iod per-request processing (parse, index stripe file, setup).
    iod_request_cpu_s: float = 60e-6
    #: mgr per-request processing (metadata lookup).
    mgr_request_cpu_s: float = 150e-6
    #: Cache-module hash lookup per block (a failed probe on the miss
    #: path costs only this; the paper's < 400 us bound is dominated
    #: by the copy below).
    cache_lookup_s: float = 5e-6
    #: Copying one 4 KB cache block between kernel and user space
    #: (with bookkeeping; calibrated so the full hit path lands at
    #: ~100 us/block, the value implied by the paper's Figure 5a).
    cache_copy_block_s: float = 85e-6
    #: Extra bookkeeping when the module splits / marks pending requests.
    cache_fsm_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.fabric not in ("hub", "switch"):
            raise ValueError(f"unknown fabric {self.fabric!r}")
        if self.bandwidth_bps <= 0 or self.disk_bytes_per_s <= 0:
            raise ValueError("rates must be positive")

    @property
    def cache_block_service_s(self) -> float:
        """Cost of serving one 4 KB block from the cache (lookup+copy).

        The paper reports this envelope as "< 400 microseconds for a
        block of 4K bytes" including module entry; our default is
        ~105 us which respects that bound.
        """
        return self.cache_lookup_s + self.cache_copy_block_s + self.cache_fsm_s


@dataclasses.dataclass
class CacheConfig:
    """Configuration of the per-node kernel cache module (Section 3.2)."""

    #: Total cache size per node; the paper uses 1.2 MB everywhere.
    size_bytes: int = 1_200 * 1024
    #: Cache block size; 4 KB "to make it equal to page size".
    block_size: int = 4096
    #: Flusher wakeup period (dirty blocks older than one period reach
    #: the iods within the next wakeup).
    flush_period_s: float = 30e-3
    #: Harvester trigger: refill when free blocks drop below this
    #: fraction of the cache ...
    low_watermark: float = 0.10
    #: ... and stop once this fraction is free.
    high_watermark: float = 0.25
    #: Replacement policy: "clock" (paper's approximate LRU) or
    #: "exact-lru" (ablation).
    replacement: str = "clock"
    #: Whether a cached block in the middle of a contiguous run splits
    #: the miss request (paper's behaviour).  Ablation: off treats the
    #: whole run as a miss.
    split_on_cached_block: bool = True
    #: Prefer evicting clean blocks over dirty ones (paper's policy).
    prefer_clean_eviction: bool = True
    #: Blocks pinned at once per request; large requests are processed
    #: in segments of this many blocks so concurrent requests cannot
    #: pin the whole cache (None = n_blocks // 8, min 8).
    segment_blocks: int | None = None
    #: Cooperative cluster-wide cache (the paper's "ongoing work"
    #: extension): on a local miss, ask the block's home cache node
    #: before going to the iod.
    global_cache: bool = False
    #: Sequential readahead (the paper's "prefetching" future-work
    #: item): detect per-file sequential runs and prefetch ahead into
    #: the shared cache.
    readahead: bool = False

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block size must be positive")
        if self.size_bytes < self.block_size:
            raise ValueError("cache smaller than one block")
        if not (0 <= self.low_watermark <= self.high_watermark <= 1):
            raise ValueError(
                "need 0 <= low_watermark <= high_watermark <= 1, got "
                f"{self.low_watermark}/{self.high_watermark}"
            )
        if self.replacement not in ("clock", "exact-lru"):
            raise ValueError(f"unknown replacement {self.replacement!r}")

    @property
    def n_blocks(self) -> int:
        """Cache frames per node (size // block size)."""
        return self.size_bytes // self.block_size

    @property
    def low_blocks(self) -> int:
        """Low watermark in blocks."""
        return max(1, int(self.n_blocks * self.low_watermark))

    @property
    def high_blocks(self) -> int:
        """High watermark in blocks."""
        return max(2, int(self.n_blocks * self.high_watermark))

    @property
    def effective_segment_blocks(self) -> int:
        """Blocks pinned at once per request segment."""
        if self.segment_blocks is not None:
            if self.segment_blocks < 1:
                raise ValueError("segment_blocks must be >= 1")
            return self.segment_blocks
        return max(8, self.n_blocks // 8)


@dataclasses.dataclass
class ClusterConfig:
    """Topology + component sizing for one simulated cluster."""

    #: Compute nodes (run application processes + the cache module).
    compute_nodes: int = 4
    #: Nodes whose disk stores stripe data (iod daemons).  In the
    #: paper's 6-node testbed the same boxes serve both roles; set
    #: ``separate_iod_nodes=True`` for a disjoint server pool.
    iod_nodes: int = 4
    separate_iod_nodes: bool = False
    #: PVFS stripe unit (PVFS 1.x default is 64 KB).
    stripe_size: int = 65536
    #: iod OS page cache, in blocks of ``CacheConfig.block_size``
    #: (16384 x 4 KB = 64 MB, about half of a 128 MB node's RAM).
    pagecache_blocks: int = 16384
    #: Whether compute nodes run the kernel cache module.
    caching: bool = True
    #: Disk model: ``"mech"`` (per-request spindle simulation, the
    #: validated default), ``"queued"`` (analytic FIFO batch service,
    #: see DESIGN.md §13), or ``None`` to defer to
    #: ``REPRO_DISK_MODEL`` falling back to mech.
    disk_model: str | None = None
    #: Path of a workload trace (JSONL or CSV dialect) to replay
    #: instead of the synthetic benchmark the driver would generate,
    #: or ``None`` to defer to ``REPRO_TRACE`` falling back to the
    #: synthetic workload.  See ``repro.workload.runner``.
    trace_source: str | None = None
    #: Hash-partitioned metadata server shards (DESIGN.md §17): how
    #: many mgr daemons the file namespace is split across, or
    #: ``None`` to defer to ``REPRO_MGR_SHARDS`` falling back to 1
    #: (the paper's single mgr, bit-identical schedules).
    mgr_shards: int | None = None
    cache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    costs: CostModel = dataclasses.field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.compute_nodes < 1 or self.iod_nodes < 1:
            raise ValueError("need at least one compute and one iod node")
        if self.disk_model is not None and self.disk_model not in DISK_MODELS:
            raise ValueError(
                f"unknown disk_model {self.disk_model!r}; have {DISK_MODELS}"
            )
        if self.mgr_shards is not None and self.mgr_shards < 1:
            raise ValueError(
                f"mgr_shards must be >= 1, got {self.mgr_shards}"
            )
        if self.stripe_size <= 0:
            raise ValueError("stripe size must be positive")
        if self.stripe_size % self.cache.block_size != 0:
            raise ValueError(
                "stripe size must be a multiple of the cache block size "
                f"({self.stripe_size} % {self.cache.block_size} != 0)"
            )

    @property
    def resolved_disk_model(self) -> str:
        """The effective disk model for this cluster.

        An explicit ``disk_model`` wins; otherwise ``REPRO_DISK_MODEL``
        chooses, and with neither set the validated mechanical model
        runs.
        """
        model = self.disk_model or os.environ.get(DISK_MODEL_ENV_VAR) or "mech"
        if model not in DISK_MODELS:
            raise ValueError(
                f"{DISK_MODEL_ENV_VAR}={model!r} is not one of {DISK_MODELS}"
            )
        return model

    @property
    def resolved_trace_source(self) -> str | None:
        """The trace file to replay, or ``None`` for synthetic runs.

        An explicit ``trace_source`` wins; otherwise a non-empty
        ``REPRO_TRACE`` chooses, and with neither set drivers generate
        their synthetic workloads as usual.
        """
        return self.trace_source or os.environ.get(TRACE_ENV_VAR) or None

    @property
    def resolved_mgr_shards(self) -> int:
        """How many metadata server shards this config asks for.

        An explicit ``mgr_shards`` wins; otherwise a non-empty
        ``REPRO_MGR_SHARDS`` chooses, and with neither set the
        paper's single mgr runs.
        """
        if self.mgr_shards is not None:
            return self.mgr_shards
        raw = os.environ.get(MGR_SHARDS_ENV_VAR, "")
        if not raw:
            return 1
        try:
            shards = int(raw)
        except ValueError:
            raise ValueError(
                f"{MGR_SHARDS_ENV_VAR}={raw!r} is not an integer"
            ) from None
        if shards < 1:
            raise ValueError(f"{MGR_SHARDS_ENV_VAR}={raw!r} must be >= 1")
        return shards

    def compute_node_names(self) -> list[str]:
        """Names of the compute nodes."""
        return [f"node{i}" for i in range(self.compute_nodes)]

    def iod_node_names(self) -> list[str]:
        """Names of the iod nodes (co-located or separate)."""
        if self.separate_iod_nodes:
            base = self.compute_nodes
            return [f"node{base + i}" for i in range(self.iod_nodes)]
        # Co-located (paper's testbed): iods run on node0, node1, ...,
        # overlapping the compute nodes where the ranges intersect.
        return [f"node{i}" for i in range(self.iod_nodes)]

    #: Read only by the frozen ``bench/workloads.py`` provenance block;
    #: there is one engine, one read path and one network model
    #: (DESIGN.md appendix A).  The next benchmark PR should drop these
    #: constants and that reader together.
    resolved_engine_shards = 1
    resolved_engine_macro = False
    resolved_net_model = "frames"

    #: Well-known ports.
    MGR_PORT = 3000
    IOD_PORT = 7000
    FLUSH_PORT = 7001
