"""Cluster assembly: build a whole simulated PVFS cluster in one call.

This is the main entry point of the library::

    from repro.cluster import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(compute_nodes=4, iod_nodes=4))
    client = cluster.client("node0")

    def app(env):
        handle = yield from client.open("/data/file")
        yield from client.write(handle, 0, 4096, b"x" * 4096)
        data = yield from client.read(handle, 0, 4096, want_data=True)

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run(until=proc)
"""

from __future__ import annotations

import typing as _t

from repro.cache.module import CacheModule
from repro.cluster.config import ClusterConfig
from repro.cluster.node import Node
from repro.metrics import Metrics
from repro.net import Network, SharedHubFabric, SwitchedFabric
from repro.pvfs.client import PVFSClient
from repro.pvfs.iod import Iod
from repro.pvfs.mgr import MetadataServer
from repro.pvfs.striping import StripeLayout
from repro.sim import Environment
from repro.svc import Service, StopReport


class Cluster:
    """A fully wired cluster: network, nodes, mgr, iods, cache modules."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        env: Environment | None = None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.env = env if env is not None else Environment()
        self.metrics = Metrics()
        costs = self.config.costs

        fabric_cls = SharedHubFabric if costs.fabric == "hub" else SwitchedFabric
        fabric = fabric_cls(
            self.env,
            bandwidth_bps=costs.bandwidth_bps,
            frame_bytes=costs.frame_bytes,
            base_latency_s=costs.net_latency_s,
        )
        self.network = Network(self.env, fabric=fabric)

        compute_names = self.config.compute_node_names()
        iod_names = self.config.iod_node_names()
        #: How many hash-partitioned metadata shards run (DESIGN.md §17).
        self.mgr_shards = self.config.mgr_shards
        #: Where each mgr shard lives: shard ``k`` on iod node
        #: ``k % n_iods``, on port ``MGR_PORT + k // n_iods`` so shards
        #: beyond the node count stack onto fresh ports instead of
        #: colliding.
        self.mgr_placements: list[tuple[str, int]] = [
            (
                iod_names[k % len(iod_names)],
                self.config.MGR_PORT + k // len(iod_names),
            )
            for k in range(self.mgr_shards)
        ]
        self.nodes: dict[str, Node] = {}
        for name in dict.fromkeys([*compute_names, *iod_names]):
            self.nodes[name] = Node(
                self.env,
                name,
                self.network,
                costs,
                config=self.config,
                with_disk=name in iod_names,
            )

        self.layout = StripeLayout(
            n_iods=len(iod_names), stripe_size=self.config.stripe_size
        )

        #: The metadata shards, indexed by shard number.  The default
        #: single shard lives on the first iod node (the usual PVFS
        #: deployment).
        self.mgr_servers: list[MetadataServer] = []
        for k, (mgr_node, mgr_port) in enumerate(self.mgr_placements):
            server = MetadataServer(
                self.nodes[mgr_node],
                iod_nodes=iod_names,
                stripe_size=self.config.stripe_size,
                metrics=self.metrics,
                port=mgr_port,
                shard_index=k,
                n_shards=self.mgr_shards,
            )
            server.start()
            self.mgr_servers.append(server)
        #: Shard 0, the whole service when ``mgr_shards == 1``.
        self.mgr = self.mgr_servers[0]

        self.iods: list[Iod] = []
        for idx, name in enumerate(iod_names):
            iod = Iod(
                self.nodes[name],
                layout=self.layout,
                iod_index=idx,
                metrics=self.metrics,
                port=self.config.IOD_PORT,
                flush_port=self.config.FLUSH_PORT,
                invalidate_port=self.INVALIDATE_PORT,
                mgr_shards=self.mgr_shards,
            )
            iod.start()
            self.iods.append(iod)

        self.cache_modules: dict[str, CacheModule] = {}
        if self.config.caching:
            for name in compute_names:
                module = CacheModule(
                    self.nodes[name],
                    layout=self.layout,
                    iod_nodes=iod_names,
                    metrics=self.metrics,
                    config=self.config.cache,
                    iod_port=self.config.IOD_PORT,
                    flush_port=self.config.FLUSH_PORT,
                    invalidate_port=self.INVALIDATE_PORT,
                )
                module.start()
                self.nodes[name].cache_module = module
                self.cache_modules[name] = module

        #: Every top-level service in start order (children — flusher,
        #: harvester — are reached through their parents).
        self.services: list[Service] = [
            *self.mgr_servers,
            *self.iods,
            *(
                node.writeback
                for node in (self.nodes[n] for n in iod_names)
                if node.writeback is not None
            ),
            *self.cache_modules.values(),
        ]

    INVALIDATE_PORT = 7002

    @property
    def compute_nodes(self) -> list[str]:
        """Names of the compute nodes."""
        return self.config.compute_node_names()

    @property
    def iod_nodes(self) -> list[str]:
        """Names of the storage (iod) nodes."""
        return self.config.iod_node_names()

    def node(self, name: str) -> Node:
        """The Node object called ``name``."""
        return self.nodes[name]

    def client(self, node_name: str, use_cache: bool = True) -> PVFSClient:
        """A fresh libpvfs instance (one per application process)."""
        return PVFSClient(
            self.nodes[node_name],
            mgr_node=self.mgr_placements[0][0],
            metrics=self.metrics,
            mgr_port=self.config.MGR_PORT,
            iod_port=self.config.IOD_PORT,
            use_cache=use_cache,
            mgr_placements=self.mgr_placements,
        )

    def drain_caches(self) -> _t.Generator:
        """Process body: flush every node's dirty blocks (tests)."""
        for module in self.cache_modules.values():
            yield from module.flusher.drain()

    def node_services(self, name: str) -> list[Service]:
        """Top-level services hosted on node ``name``."""
        return [
            service
            for service in self.services
            if service.node is not None and service.node.name == name
        ]

    def drain_node(self, name: str) -> _t.Generator:
        """Process body: let node ``name``'s daemons finish dirty work
        (cache flusher + disk writeback) ahead of a teardown.

        Runs in reverse start order so dirty work settles downstream:
        the cache flusher's batches land in the co-hosted iod's
        writeback queue *before* that writeback daemon drains.
        """
        for service in reversed(self.node_services(name)):
            yield from service.drain()

    def stop_node(self, name: str, strict: bool = False) -> list[StopReport]:
        """Tear down node ``name``'s daemons; reports dropped work."""
        return [
            service.stop(strict=strict)
            for service in reversed(self.node_services(name))
        ]

    def stop_services(self, strict: bool = False) -> list[StopReport]:
        """Stop every service in reverse start order."""
        return [
            service.stop(strict=strict) for service in reversed(self.services)
        ]
