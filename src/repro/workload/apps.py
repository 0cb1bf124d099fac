"""Application-level benchmarks with inter-application data sharing.

The paper closes on exactly this gap: "there is a lack of benchmarks
containing groups of applications sharing data.  Identification and
characterization of such benchmarks is also an interesting topic".
This module provides that characterisation: four synthetic applications
drawn from the paper's motivating domains (Section 1: "medical imaging,
data analysis and mining, video processing, large archive maintenance"),
each a generator-based program against the public API, plus a
:func:`run_app_mix` harness that co-schedules them the way Figure 1's
analysis cycle does.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.cluster import Cluster
from repro.sim import Process


@dataclasses.dataclass
class AppResult:
    name: str
    node: str
    elapsed_s: float
    requests: int


class BaseApp:
    """A simulated application bound to one node of a cluster."""

    def __init__(
        self, cluster: Cluster, node: str, name: str | None = None
    ) -> None:
        self.cluster = cluster
        self.node = node
        self.name = name or type(self).__name__
        self.client = cluster.client(node)
        self.client.process_name = f"{self.name}@{node}"
        self.client.app = self.name
        self.requests = 0
        self.result: AppResult | None = None

    def spawn(self) -> Process:
        """Start the app as a simulation process."""
        return self.cluster.env.process(
            self._timed_run(), name=f"app-{self.name}@{self.node}"
        )

    def _timed_run(self) -> _t.Generator:
        env = self.cluster.env
        start = env.now
        yield from self.run()
        self.result = AppResult(
            name=self.name,
            node=self.node,
            elapsed_s=env.now - start,
            requests=self.requests,
        )
        self.cluster.metrics.record(f"app.{self.name}.elapsed", self.result.elapsed_s)
        return self.result

    def run(self) -> _t.Generator:  # pragma: no cover - interface
        """Process body: the application's program."""
        raise NotImplementedError

    # -- instrumented I/O helpers -------------------------------------------
    def _read(self, handle, offset, nbytes) -> _t.Generator:
        self.requests += 1
        yield from self.client.read(handle, offset, nbytes)

    def _write(self, handle, offset, nbytes) -> _t.Generator:
        self.requests += 1
        yield from self.client.write(handle, offset, nbytes, None)

    def _compute(self, seconds: float) -> _t.Generator:
        yield self.cluster.node(self.node).compute(seconds)


class OutOfCoreMatrixMultiply(BaseApp):
    """Tiled out-of-core C = A x B (the compiler-literature workload
    the paper's related work revolves around: Bordawekar, Paleczny...).

    Reads tiles of A row-panel-wise and B column-panel-wise — B's
    panels are re-read once per row panel, which is where a cache (or
    a co-scheduled sibling) helps.
    """

    def __init__(
        self,
        cluster: Cluster,
        node: str,
        tiles: int = 4,
        tile_bytes: int = 128 * 1024,
        a_path: str = "/ooc/A",
        b_path: str = "/ooc/B",
        c_path: str = "/ooc/C",
        flops_per_tile_s: float = 1.5e-3,
        name: str | None = None,
    ) -> None:
        super().__init__(cluster, node, name)
        self.tiles = tiles
        self.tile_bytes = tile_bytes
        self.a_path, self.b_path, self.c_path = a_path, b_path, c_path
        self.flops_per_tile_s = flops_per_tile_s

    def run(self) -> _t.Generator:
        """Tiled OOC matmul: panel reads, tile compute, result writes."""
        a = yield from self.client.open(self.a_path)
        b = yield from self.client.open(self.b_path)
        c = yield from self.client.open(self.c_path)
        for i in range(self.tiles):
            yield from self._read(a, i * self.tile_bytes, self.tile_bytes)
            for j in range(self.tiles):
                # B's panel j is re-read for every row panel i.
                yield from self._read(b, j * self.tile_bytes, self.tile_bytes)
                yield from self._compute(self.flops_per_tile_s)
            yield from self._write(c, i * self.tile_bytes, self.tile_bytes)


class AssociationMiningScan(BaseApp):
    """Multi-pass data mining (Apriori-style): every pass re-scans the
    whole transaction file with shrinking compute per pass."""

    def __init__(
        self,
        cluster: Cluster,
        node: str,
        dataset: str = "/mining/transactions",
        dataset_bytes: int = 1024 * 1024,
        passes: int = 3,
        chunk_bytes: int = 64 * 1024,
        compute_per_chunk_s: float = 1e-3,
        name: str | None = None,
    ) -> None:
        super().__init__(cluster, node, name)
        self.dataset = dataset
        self.dataset_bytes = dataset_bytes
        self.passes = passes
        self.chunk_bytes = chunk_bytes
        self.compute_per_chunk_s = compute_per_chunk_s

    def run(self) -> _t.Generator:
        """K passes over the dataset with shrinking compute."""
        handle = yield from self.client.open(self.dataset)
        for pass_no in range(self.passes):
            pos = 0
            while pos < self.dataset_bytes:
                n = min(self.chunk_bytes, self.dataset_bytes - pos)
                yield from self._read(handle, pos, n)
                yield from self._compute(
                    self.compute_per_chunk_s / (pass_no + 1)
                )
                pos += n


class VideoFrameExtractor(BaseApp):
    """Video processing: strided reads (every k-th frame) of a large
    stream — the spatial-locality-without-reuse pattern.

    With ``batch_frames > 1`` the extractor issues each batch as one
    strided list-I/O request (``readv``) instead of per-frame reads —
    the noncontiguous request shape that traces record as a single
    ``count > 1`` event.
    """

    def __init__(
        self,
        cluster: Cluster,
        node: str,
        stream: str = "/video/stream",
        frame_bytes: int = 64 * 1024,
        frames: int = 24,
        stride: int = 2,
        offset_frames: int = 0,
        decode_s: float = 8e-4,
        batch_frames: int = 1,
        name: str | None = None,
    ) -> None:
        super().__init__(cluster, node, name)
        self.stream = stream
        self.frame_bytes = frame_bytes
        self.frames = frames
        self.stride = stride
        self.offset_frames = offset_frames
        self.decode_s = decode_s
        if batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        self.batch_frames = batch_frames

    def run(self) -> _t.Generator:
        """Strided frame reads with per-frame decode."""
        handle = yield from self.client.open(self.stream)
        frame = self.offset_frames
        remaining = self.frames
        while remaining > 0:
            batch = min(self.batch_frames, remaining)
            if batch > 1:
                self.requests += 1
                yield from self.client.readv(
                    handle,
                    [
                        ((frame + k * self.stride) * self.frame_bytes,
                         self.frame_bytes)
                        for k in range(batch)
                    ],
                )
            else:
                yield from self._read(
                    handle, frame * self.frame_bytes, self.frame_bytes
                )
            yield from self._compute(self.decode_s * batch)
            frame += self.stride * batch
            remaining -= batch


class ArchiveMaintainer(BaseApp):
    """Large archive maintenance: appends batches to an archive file
    and periodically re-reads the recent window to build an index."""

    def __init__(
        self,
        cluster: Cluster,
        node: str,
        archive: str = "/archive/log",
        batch_bytes: int = 32 * 1024,
        batches: int = 16,
        index_every: int = 4,
        window_batches: int = 4,
        name: str | None = None,
    ) -> None:
        super().__init__(cluster, node, name)
        self.archive = archive
        self.batch_bytes = batch_bytes
        self.batches = batches
        self.index_every = index_every
        self.window_batches = window_batches

    def run(self) -> _t.Generator:
        """Batch appends with periodic index re-reads."""
        handle = yield from self.client.open(self.archive)
        for batch in range(self.batches):
            yield from self._write(
                handle, batch * self.batch_bytes, self.batch_bytes
            )
            if (batch + 1) % self.index_every == 0:
                first = max(0, batch + 1 - self.window_batches)
                yield from self._read(
                    handle,
                    first * self.batch_bytes,
                    (batch + 1 - first) * self.batch_bytes,
                )


def run_app_mix(
    cluster: Cluster, apps: _t.Sequence[BaseApp]
) -> list[AppResult]:
    """Co-schedule the applications; returns per-app results."""
    procs = [app.spawn() for app in apps]
    cluster.env.run(until=cluster.env.all_of(procs))
    results = [app.result for app in apps]
    assert all(r is not None for r in results)
    return _t.cast(list[AppResult], results)


def analysis_cycle_mix(cluster: Cluster, nodes: _t.Sequence[str]) -> list[BaseApp]:
    """The paper's Figure 1 cycle as an app mix: archive maintenance
    feeding mining and visualization-like scans, plus an independent
    out-of-core solver — a representative multiprogrammed I/O mix."""
    apps: list[BaseApp] = []
    apps.append(ArchiveMaintainer(cluster, nodes[0], name="archiver"))
    apps.append(
        AssociationMiningScan(cluster, nodes[0], name="miner")
    )
    second_node = nodes[1] if len(nodes) > 1 else nodes[0]
    apps.append(
        AssociationMiningScan(cluster, second_node, name="miner-2")
    )
    apps.append(
        OutOfCoreMatrixMultiply(cluster, nodes[0], name="solver")
    )
    for i, node in enumerate(nodes):
        apps.append(
            VideoFrameExtractor(
                cluster,
                node,
                stride=len(nodes),
                offset_frames=i,
                name=f"frames-{i}",
            )
        )
    return apps
