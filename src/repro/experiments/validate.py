"""The claim table: every paper-shape assertion of the reproduction.

Each row of :data:`CLAIMS` holds a stable id, the claim (the paper's
figure/section or the DESIGN.md section it comes from), the numbers it
measures, the pass predicate over them and how they print.  Rows are
evaluated through the two shared point functions of
:mod:`repro.experiments.common` (the ones the figure drivers sweep),
memoised so a point shared between rows is simulated once per run.

``tests/test_validate.py`` runs the table row by row in tier-1, so CI
judges every claim under each network/disk model it runs; from a shell::

    python -m repro.experiments.validate      # PASS/FAIL per row
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing as _t
from operator import gt, lt

from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig, CostModel
from repro.experiments.common import QUICK_SIZES, pair_point, single_point
from repro.experiments.overhead import PAPER_BOUND_S, measure_hit_cost
from repro.experiments.scaling import knee_params
from repro.pvfs.collective import run_interleaved_read
from repro.workload import apps
from repro.workload.openloop import run_open_loop

D = 65536


def _fetched_bytes(split: bool) -> int:
    """Cache every other block of a 32-block run, then read the run."""
    cache = CacheConfig(split_on_cached_block=split)
    cluster = Cluster(ClusterConfig(compute_nodes=1, iod_nodes=1, cache=cache))
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/split")
        for i in range(0, 32, 2):
            yield from client.read(f, i * 4096, 4096)
        yield from client.read(f, 0, 32 * 4096)

    cluster.env.run(until=cluster.env.process(app(cluster.env)))
    return cluster.metrics.count("cache.fetched_bytes")


def _dirty_left(out) -> int:
    """Dirty blocks in the caches when the run ends."""
    return sum(m.manager.n_dirty for m in out.cluster.cache_modules.values())


def _sync_write_latency(out) -> float:
    return out.cluster.metrics.mean("client.sync_write_latency")


def _app_times(app_cls, **kwargs) -> tuple[float, float]:
    """One application alone on one node with a dedicated iod pool:
    elapsed (with caching, without)."""
    times = []
    for caching in (True, False):
        config = ClusterConfig(
            compute_nodes=1, iod_nodes=1, caching=caching, separate_iod_nodes=True
        )
        cluster = Cluster(config)
        app = app_cls(cluster, "node0", **kwargs)
        times.append(apps.run_app_mix(cluster, [app])[0].elapsed_s)
    return times[0], times[1]


def _mix(caching: bool) -> tuple[float, int]:
    """The Figure-1 analysis-cycle mix: (slowest app, cache hits)."""
    cluster = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=2, caching=caching))
    mix = apps.analysis_cycle_mix(cluster, ["node0", "node1"])
    results = apps.run_app_mix(cluster, mix)
    return max(r.elapsed_s for r in results), cluster.metrics.count("cache.hits")


def _interleaved(mode: str) -> tuple[float, ...]:
    """2 KB items interleaved over 2x2 co-located ranks, no cache:
    (two-phase collective, independent)."""
    return tuple(
        run_interleaved_read(
            Cluster(ClusterConfig(compute_nodes=2, iod_nodes=2, caching=False)),
            ["node0", "node0", "node1", "node1"],
            item_bytes=2048,
            items_per_rank=32,
            collective=collective,
            mode=mode,
        )
        for collective in (True, False)
    )


def _knee_ops_s(mgr_shards: int) -> float:
    """Completed ops/s at the p=256 open-loop knee (``scaling_point``'s
    workload).  Pinned to the validated disk model: the gate this row
    replaces ran with the model variable unset and the claim is about
    the mgr."""
    config = ClusterConfig(
        compute_nodes=256,
        iod_nodes=256,
        mgr_shards=mgr_shards,
        disk_model="mech",
    )
    return run_open_loop(config, knee_params(256)).completed_ops_per_s


class Points:
    """The measurements rows share, each simulated once per instance.

    A point is a pure function of its arguments and of the models the
    environment resolves, so one ``Points`` serves one run of the table.
    The memos key on the call as written: rows that want one side of a
    point call ``single_point(d, mode, caching, locality, p)`` /
    ``pair_point(d, locality, sharing, caching, p)`` with exactly these
    positional arguments.
    """

    def __init__(self) -> None:
        self.single_point = functools.cache(single_point)
        self.pair_point = functools.cache(pair_point)
        self.hit = functools.cache(measure_hit_cost)
        self.mix = functools.cache(_mix)

    def single(self, d: int, mode: str, locality: float, p: int = 4):
        """One instance's mean latency (with caching, without)."""
        return tuple(
            self.single_point(d, mode, caching, locality, p)
            for caching in (True, False)
        )

    def pair(self, d: int, locality: float, sharing: float, p: int = 4):
        """Two co-located instances' makespan (with caching, without)."""
        return tuple(
            self.pair_point(d, locality, sharing, caching, p)
            for caching in (True, False)
        )

    def fig8(self, locality: float, sharing: float, caching: bool, spread: bool):
        """Two 3-node instances on the 6-node cluster, co-located or on
        disjoint halves (Fig 8's placements)."""
        return self.pair_point(
            D, locality, sharing, caching, 3, 2 * 2**20, 6, spread
        )

    def fig8_placements(self, locality: float):
        """Fig 8 at s=50%: (cache co-located, no-cache spread, no-cache
        co-located)."""
        return tuple(
            self.fig8(locality, 0.5, caching, spread)
            for caching, spread in ((True, False), (False, True), (False, False))
        )


@dataclasses.dataclass(frozen=True)
class Check:
    """One evaluated row."""

    id: str
    claim: str
    passed: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class Claim:
    """One row of the table."""

    id: str
    claim: str
    #: The numbers the row measures.
    values: _t.Callable[[Points], tuple]
    #: The pass predicate over them.
    holds: _t.Callable[..., bool]
    #: How they print.
    detail: _t.Callable[..., str]

    def check(self, points: Points) -> Check:
        """Measure the row."""
        values = self.values(points)
        return Check(
            self.id, self.claim, bool(self.holds(*values)), self.detail(*values)
        )


# -- the predicates and detail formats rows share ------------------------------


def _in_bound(per_block_s: float) -> bool:
    return per_block_s < PAPER_BOUND_S


def _within(slack: float):
    return lambda cached, plain: cached < plain * slack


def _speedup(floor: float):
    return lambda cached, plain: plain / cached > floor


def _all_positive(*latencies: float) -> bool:
    return all(t > 0 for t in latencies)


def _us(per_block_s: float) -> str:
    return f"{per_block_s * 1e6:.0f} us/block"


def _ms(cached: float, plain: float) -> str:
    return f"{cached * 1e3:.2f} vs {plain * 1e3:.2f} ms"


def _ms_list(label: str):
    return lambda *ts: f"{label}: " + "/".join(f"{t * 1e3:.2f}" for t in ts) + " ms"


def _s(cached: float, plain: float) -> str:
    return f"caching {cached:.4f}s vs no-caching {plain:.4f}s"


def _x(cached: float, plain: float) -> str:
    return f"{plain / cached:.2f}x"


def _kb(d: int) -> int:
    return d // 1024


def _pct(sharing: float) -> int:
    return int(sharing * 100)


# One row: id, claim / values(points) -> tuple, holds(*values), detail(*values).
# fmt: off
CLAIMS: list[Claim] = [
    # -- Sec. 4.2: the inline hit-cost bound ----------------------------------
    Claim("hit-cost", "hit service < 400 us per 4 KB block (Sec. 4.2)",
          lambda pt: (pt.hit(16).per_block_s,), _in_bound, _us),
    *(Claim(f"hit-cost-{n}blk",
            f"hit service < 400 us per 4 KB block, {n}-block request (Sec. 4.2)",
            lambda pt, n=n: (pt.hit(n).per_block_s,), _in_bound, _us)
      for n in (1, 64)),
    Claim("hit-cost-flat", "per-block hit cost does not grow with request size",
          lambda pt: (pt.hit(1).per_block_s, pt.hit(64).per_block_s),
          lambda small, large: large <= small * 1.2,
          lambda small, large: f"1 block: {_us(small)} -> 64 blocks: {_us(large)}"),
    # -- Fig 4: one instance, l=0 (worst case) --------------------------------
    Claim("fig4a", "fig4a: l=0 read overhead not significant",
          lambda pt: pt.single(D, "read", 0.0), _within(1.5), _ms),
    Claim("fig4b", "fig4b: l=0 write-behind wins",
          lambda pt: pt.single(D, "write", 0.0), lt, _ms),
    *(Claim(f"fig4a-d{_kb(d)}k",
            f"fig4a: l=0 read overhead not significant (d={_kb(d)} KB)",
            lambda pt, d=d: pt.single(d, "read", 0.0), _within(1.5), _ms)
      for d in (4096, 262144)),
    Claim("fig4b-d4k", "fig4b: l=0 write-behind wins (d=4 KB)",
          lambda pt: pt.single(4096, "write", 0.0), lt, _ms),
    Claim("fig4b-d256k",
          "fig4b: large writes block for cache space, difference lessens (d=256 KB)",
          lambda pt: pt.single(262144, "write", 0.0), _within(2.0), _ms),
    Claim("fig4b-gap-narrows", "fig4b: write-behind advantage shrinks toward large d",
          lambda pt: tuple(plain / cached for cached, plain in (
              pt.single(4096, "write", 0.0), pt.single(262144, "write", 0.0))),
          gt, lambda small, large: f"{small:.1f}x at 4 KB -> {large:.2f}x at 256 KB"),
    # -- Fig 5: one instance, l=1 (best case) ---------------------------------
    Claim("fig5a", "fig5a: l=1 reads win substantially",
          lambda pt: (pt.single(D, "read", 1.0)[0], pt.single(D, "read", 0.0)[1]),
          lambda hot, plain: hot * 2 < plain,
          lambda hot, plain: f"{plain / hot:.1f}x speedup"),
    Claim("fig5b", "fig5b: l=1 writes win",
          lambda pt: (pt.single(D, "write", 1.0)[0], pt.single(D, "write", 0.0)[1]),
          lt, lambda hot, plain: f"{plain / hot:.1f}x speedup"),
    *(Claim(f"fig5a-d{_kb(d)}k",
            f"fig5a: l=1 reads beat no-caching, by > 2x from 64 KB (d={_kb(d)} KB)",
            lambda pt, d=d: pt.single(d, "read", 1.0),
            _speedup(2.0 if d >= 65536 else 1.0), _ms)
      for d in QUICK_SIZES),
    *(Claim(f"fig5b-d{_kb(d)}k", f"fig5b: l=1 writes beat no-caching (d={_kb(d)} KB)",
            lambda pt, d=d: pt.single(d, "write", 1.0), lt, _ms)
      for d in QUICK_SIZES),
    Claim("fig5-beats-fig4", "fig5 vs fig4: locality turns overhead into benefit",
          lambda pt: (pt.single(D, "read", 1.0)[0], pt.single(D, "read", 0.0)[0]),
          lambda hot, cold: hot < cold / 2,
          lambda hot, cold: f"l=1 {hot * 1e3:.2f} ms vs l=0 {cold * 1e3:.2f} ms"),
    # -- Fig 6: two instances on the same four nodes --------------------------
    Claim("fig6a-sharing-wins", "fig6a: caching beats PVFS at l=0 with sharing",
          lambda pt: (pt.pair(D, 0.0, 1.0)[0], pt.pair(D, 0.0, 0.5)[1]),
          lt, lambda high, base: f"s=100%: {high:.3f}s vs {base:.3f}s"),
    Claim("fig6a-sharing-grows", "fig6a: benefit grows with sharing degree",
          lambda pt: (pt.pair(D, 0.0, 0.25)[0], pt.pair(D, 0.0, 1.0)[0]),
          gt, lambda low, high: f"s=25%: {low:.3f}s -> s=100%: {high:.3f}s"),
    Claim("fig6c", "fig6c: locality amplifies the two-instance win",
          lambda pt: pt.pair(D, 1.0, 0.5),
          lambda hot, base: hot * 2 < base,
          lambda hot, base: f"{base / hot:.1f}x at l=1"),
    Claim("fig7-scales-with-p", "fig7: p=4 benefits exceed p=2",
          lambda pt: tuple(plain / cached for cached, plain in (
              pt.pair(D, 1.0, 0.5), pt.pair(D, 1.0, 0.5, 2))),
          gt, lambda p4, p2: f"p=4: {p4:.1f}x vs p=2: {p2:.1f}x"),
    *(Claim(f"fig6a-s{_pct(s)}", f"fig6a: caching beats PVFS at l=0, s={_pct(s)}%",
            lambda pt, s=s: pt.pair(D, 0.0, s), lt, _s)
      for s in (0.25, 0.50, 0.75, 1.00)),
    Claim("fig6a-s75-beats-s25", "fig6a: benefit grows with sharing (25% -> 75%)",
          lambda pt: (pt.pair(D, 0.0, 0.25)[0], pt.pair(D, 0.0, 0.75)[0]),
          gt, lambda low, high: f"s=25%: {low:.4f}s -> s=75%: {high:.4f}s"),
    *(Claim(f"fig6{panel}-speedup",
            f"fig6{panel}: l={locality} speedup over PVFS > {floor}x",
            lambda pt, locality=locality: pt.pair(D, locality, 0.5),
            _speedup(floor), _x)
      for panel, locality, floor in (("b", 0.5, 1.5), ("c", 1.0, 3.0))),
    Claim("fig6-falls-with-d", "fig6: total time falls as block size grows",
          lambda pt: (pt.pair_point(4096, 0.5, 0.5, True, 4),
                      pt.pair_point(262144, 0.5, 0.5, True, 4)),
          gt, lambda small, large: f"4 KB: {small:.4f}s -> 256 KB: {large:.4f}s"),
    # -- Fig 7: the same on two nodes -----------------------------------------
    *(Claim(f"fig7a-s{_pct(s)}",
            f"fig7a: caching beats PVFS at l=0, p=2, s={_pct(s)}%",
            lambda pt, s=s: pt.pair(D, 0.0, s, 2), lt, _s)
      for s in (0.25, 1.00)),
    *(Claim(f"fig7{panel}-speedup",
            f"fig7{panel}: l={locality} speedup over PVFS > 1.3x at p=2",
            lambda pt, locality=locality: pt.pair(D, locality, 0.5, 2),
            _speedup(1.3), _x)
      for panel, locality in (("b", 0.5), ("c", 1.0))),
    # -- Fig 8: caching on 3 shared nodes vs spreading over 6 ------------------
    Claim("fig8a", "fig8a: parallelism wins at l=0, low sharing",
          lambda pt: (pt.fig8(0.0, 0.25, True, False), pt.fig8(0.0, 0.25, False, True)),
          gt, lambda coloc, spread: f"spread {spread:.3f}s vs coloc {coloc:.3f}s"),
    Claim("fig8c", "fig8c: caching offsets parallelism loss at l=1",
          lambda pt: pt.fig8_placements(1.0)[:2],
          lt, lambda coloc, spread: f"coloc {coloc:.3f}s vs spread {spread:.3f}s"),
    Claim("fig8-uncached-coloc-worst", "fig8: un-cached co-location is worst",
          lambda pt: pt.fig8_placements(0.5),
          lambda cached, spread, uncached: uncached >= max(cached, spread) * 0.98,
          lambda cached, spread, uncached: f"nocache-coloc {uncached:.3f}s"),
    Claim("fig8b", "fig8b: caching offsets parallelism loss from l=0.5",
          lambda pt: pt.fig8_placements(0.5)[:2],
          lt, lambda coloc, spread: f"coloc {coloc:.4f}s vs spread {spread:.4f}s"),
    *(Claim(f"fig8{panel}-uncached-coloc-worst",
            f"fig8{panel}: un-cached co-location is worst at l={locality}",
            lambda pt, locality=locality: pt.fig8_placements(locality),
            lambda cached, spread, uncached: uncached >= cached and uncached >= spread,
            lambda cached, spread, uncached: f"nocache-coloc {uncached:.4f}s, "
            f"cache-coloc {cached:.4f}s, nocache-spread {spread:.4f}s")
      for panel, locality in (("a", 0.0), ("c", 1.0))),
    Claim("fig8a-sharing-favours-coloc", "fig8a: higher sharing favours co-location",
          lambda pt: (pt.fig8(0.0, 0.25, True, False), pt.fig8(0.0, 1.0, True, False)),
          gt, lambda low, high: f"s=25%: {low:.4f}s -> s=100%: {high:.4f}s"),
    # -- ablations of the design choices (DESIGN.md §5) ------------------------
    Claim("ablation-clock-vs-lru", "DESIGN §5: clock hit ratio tracks exact LRU",
          lambda pt: tuple(
              single_point(D, "read", True, 0.7, cache=CacheConfig(replacement=policy),
                           measure=lambda out: out.cache_hit_ratio)
              for policy in ("clock", "exact-lru")),
          lambda clock, lru: clock > 0.4 and abs(clock - lru) < 0.15,
          lambda clock, lru: f"clock {clock:.3f} vs exact-lru {lru:.3f}"),
    Claim("ablation-flush-period", "DESIGN §5: write latency across flush periods",
          lambda pt: tuple(
              single_point(D, "write", True, 0.0, cache=CacheConfig(flush_period_s=t))
              for t in (0.005, 0.030, 0.120)),
          _all_positive, _ms_list("5/30/120 ms")),
    Claim("ablation-flush-exposure",
          "DESIGN §5: a longer flush period leaves more dirty blocks exposed",
          lambda pt: tuple(
              single_point(16384, "write", True, 0.0, measure=_dirty_left,
                           cache=CacheConfig(flush_period_s=t))
              for t in (0.005, 0.5)),
          lambda short, long: long >= short,
          lambda short, long: f"dirty at end: {short} (5 ms) vs {long} (500 ms)"),
    Claim("ablation-watermarks", "DESIGN §5: read latency across harvester watermarks",
          lambda pt: tuple(
              single_point(262144, "read", True, 0.0, cache=CacheConfig(
                  low_watermark=low, high_watermark=high))
              for low, high in ((0.02, 0.05), (0.10, 0.25), (0.30, 0.60))),
          _all_positive, _ms_list("2-5/10-25/30-60 %")),
    Claim("ablation-split",
          "DESIGN §5: splitting on a cached mid-run block fetches fewer bytes",
          lambda pt: (_fetched_bytes(True), _fetched_bytes(False)),
          lt, lambda split, hull: f"{split} vs {hull} bytes fetched"),
    Claim("ablation-sync-write-cost", "DESIGN §5: sync_write pays a round trip",
          lambda pt: (
              single_point(16384, "sync-write", True, 0.0, 2,
                           measure=_sync_write_latency),
              pt.single_point(16384, "write", True, 0.0, 2)),
          gt, lambda coherent, buffered:
          f"sync_write {coherent * 1e3:.2f} vs write {buffered * 1e3:.2f} ms"),
    Claim("ablation-hub-vs-switch",
          "DESIGN §6: the paper's shared hub serialises transfers",
          lambda pt: tuple(
              single_point(262144, "read", False, 0.0, costs=CostModel(fabric=fabric))
              for fabric in ("hub", "switch")),
          gt, lambda hub, switch:
          f"hub {hub * 1e3:.2f} vs switch {switch * 1e3:.2f} ms"),
    # -- applications with data sharing (the paper's future work) --------------
    *(Claim(f"apps-{name}",
            f"DESIGN §4 apps: {app_cls.__name__} with caching < {slack}x without",
            lambda pt, app_cls=app_cls, kwargs=kwargs: _app_times(app_cls, **kwargs),
            _within(slack), _s)
      for name, app_cls, kwargs, slack in (
          ("matmul", apps.OutOfCoreMatrixMultiply, {"tiles": 4}, 1.0),
          ("mining", apps.AssociationMiningScan,
           {"dataset_bytes": 512 * 1024, "passes": 4}, 1.0),
          # streaming without reuse: caching must at least not hurt much
          ("video", apps.VideoFrameExtractor, {"frames": 24, "stride": 1}, 1.3),
          ("archive", apps.ArchiveMaintainer, {"batches": 16}, 1.0))),
    Claim("apps-mix", "Fig 1: the multiprogrammed analysis-cycle mix wins overall",
          lambda pt: (pt.mix(True)[0], pt.mix(False)[0]), lt, _s),
    Claim("apps-mix-hits", "Fig 1: the mix's win comes from cache hits",
          lambda pt: (pt.mix(True)[1],),
          lambda hits: hits > 0, lambda hits: f"{hits} cache hits"),
    # -- two-phase collective I/O ----------------------------------------------
    *(Claim(f"collective-{mode}",
            f"DESIGN §4 collective: two-phase {mode} beats independent, no cache",
            lambda pt, mode=mode: _interleaved(mode), lt,
            lambda collective, independent:
            f"collective {collective:.4f}s vs independent {independent:.4f}s")
      for mode in ("read", "write")),
    # -- metadata shards (DESIGN.md §17) ---------------------------------------
    Claim("mgr-shards-knee",
          "DESIGN §17: 4 mgr shards complete >= 2.0x the ops/s at the p=256 knee",
          lambda pt: (_knee_ops_s(1), _knee_ops_s(4)),
          lambda one, four: four / one >= 2.0,
          lambda one, four: f"{four / one:.4f}x ({one:.0f} -> {four:.0f} ops/s)"),
]
# fmt: on


def run_checks() -> list[Check]:
    """Evaluate the whole table."""
    points = Points()
    return [claim.check(points) for claim in CLAIMS]


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point."""
    checks = run_checks()
    id_width = max(len(c.id) for c in checks)
    width = max(len(c.claim) for c in checks)
    failures = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        if not c.passed:
            failures += 1
        print(
            f"  [{status}] {c.id.ljust(id_width)}  {c.claim.ljust(width)}"
            f"  ({c.detail})"
        )
    print(
        f"\n{len(checks) - failures}/{len(checks)} claims reproduced"
        + ("" if failures == 0 else f" — {failures} FAILED")
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
