"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import types
import typing as _t

import hypothesis
import pytest

import repro.net.message  # noqa: F401  (registers its reset hook)
import repro.net.sockets  # noqa: F401  (registers its reset hook)
from repro.analysis.reset import reset_all
from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.pvfs.directory import SharerDirectory
from repro.pvfs.iod import Iod

# ``HYPOTHESIS_PROFILE=ci`` (every CI step that runs ``tests/``): the
# same examples on every rerun, and no per-example deadline for a slow
# shared runner to miss.
hypothesis.settings.register_profile("ci", derandomize=True, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _reset_module_counters():
    """Reset registered module-level state between tests.

    Message and connection ids are drawn from module-global
    ``itertools.count`` objects, so without this a test's observed ids
    depend on which tests ran before it — assertions on ids (and
    golden outputs embedding them) would be order-dependent.  Every
    module owning such state registers a hook with
    :mod:`repro.analysis.reset` (enforced by lint rule RPL004), so one
    ``reset_all()`` covers them all.
    """
    reset_all()
    yield


def make_cluster(
    compute_nodes: int = 2,
    iod_nodes: int = 2,
    caching: bool = True,
    cache_blocks: int | None = None,
    **overrides: _t.Any,
) -> Cluster:
    """A small cluster for functional tests (tiny cache by default)."""
    cache_kwargs: dict[str, _t.Any] = {}
    if cache_blocks is not None:
        cache_kwargs["size_bytes"] = cache_blocks * 4096
    cache = CacheConfig(**cache_kwargs)
    config = ClusterConfig(
        compute_nodes=compute_nodes,
        iod_nodes=iod_nodes,
        caching=caching,
        cache=cache,
        **overrides,
    )
    return Cluster(config)


def bare_iod() -> Iod:
    """An ``Iod`` with just enough attached to drive
    ``_invalidate_sharers`` off the simulator: ``iod.sent`` collects
    ``(node, block_nos)`` in the order invalidations would hit the wire."""
    iod = object.__new__(Iod)
    iod.block_size = 4096
    iod.mgr_shards = 1
    iod.directory = SharerDirectory()
    iod.metrics = types.SimpleNamespace(inc=lambda *a, **k: None)
    iod._emit = lambda *a, **k: None
    iod.sent = sent = []

    class _Call:
        def response(self):
            return None

        def close(self):
            return None

    class _Channel:
        def __init__(self, node_name):
            self.node_name = node_name

        def call(self, message):
            sent.append((self.node_name, message.payload.block_nos))
            return _Call()

    class _Pool:
        def channel(self, node_name):
            return _Channel(node_name)
            yield  # pragma: no cover - makes this a generator

    iod._invalidate_pool = _Pool()
    return iod


def run_app(cluster: Cluster, generator) -> _t.Any:
    """Run one application generator to completion; returns its value."""
    proc = cluster.env.process(generator)
    return cluster.env.run(until=proc)


@pytest.fixture
def small_cluster() -> Cluster:
    return make_cluster()
