"""repro: a reproduction of "Kernel-Level Caching for Optimizing I/O by
Exploiting Inter-Application Data Sharing" (Vilayannur, Kandemir,
Sivasubramaniam -- CLUSTER 2002).

The paper implemented a kernel-level, per-node shared I/O cache on top
of PVFS on a real Linux cluster.  This package reproduces the whole
system as a deterministic discrete-event simulation: the PVFS substrate
(mgr, iods, libpvfs), the cluster hardware (CPUs, disks, a 100 Mbps
network), and -- as the core contribution -- the cache module with its
buffer manager, flusher and harvester kernel threads, approximate-LRU
replacement, request-splitting FSM, and sync_write coherence.

Quick start::

    from repro import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(compute_nodes=4, iod_nodes=4))
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/data/matrix")
        yield from client.write(f, 0, 65536, b"a" * 65536)
        back = yield from client.read(f, 0, 65536, want_data=True)
        assert back == b"a" * 65536

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)
"""

from repro.cluster import CacheConfig, Cluster, ClusterConfig, CostModel
from repro.metrics import Metrics
from repro.sim import Environment

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "Environment",
    "Metrics",
    "__version__",
]
