"""Queued (analytic) disk model: unit behavior, mech equivalence,
determinism, and the ``disk_model`` seam.

What the ``disk_model`` seam promises (DESIGN.md §13):

* scenario **makespans** agree exactly whenever the two models charge
  the same seek count — both conserve service demand and serve FIFO;
* **per-batch** completion times agree exactly for uncontended
  scenarios and within a documented tolerance under contention, where
  the queued model's batch-atomic service legitimately finishes early
  batches sooner than the mechanical model's per-run interleaving;
* the ``mech`` model's schedule stays **bit-identical** to the seed
  revision (golden trace hashes), proving the batched data path is a
  pure refactor for the validated model.
"""

from __future__ import annotations

import pytest

from repro.analysis.determinism import fig4_point_trace_hash
from repro.cluster.config import (
    DISK_MODEL_ENV_VAR,
    ClusterConfig,
)
from repro.disk import DiskModel, QueuedDiskModel
from repro.sim import Environment
from tests.conftest import make_cluster, run_app

#: Default positioning cost (avg seek + half rotation) and media rate.
POS = 8.5e-3 + 5.6e-3
RATE = 20e6

#: Schedule digests of the mechanical model.  ``mech`` runs must
#: reproduce them bit for bit (a refactor may not move a single event).
#: Re-pinned by the event diet (DESIGN.md §14), which removes events
#: and so changes the digest by construction while the final clock of
#: both runs stays equal to the last bit: read 1358 -> 598 events
#: (was 17999720988df8807faaae9a5137f1bc), write 1632 -> 444 (was
#: c56fb89176c984016ecf282dfb455edb).
GOLDEN_MECH_READ_HASH = "17a98e9186ac5a8d3a0aee6788d6b8fb"
GOLDEN_MECH_WRITE_HASH = "ab5d91b2acca77e0ef4c21678dffb407"


def _xfer(nbytes: int) -> float:
    return nbytes / RATE


def _run_batches(disk_cls, batches):
    """Run ``[(start_s, file_id, runs, write), ...]``; per-batch
    finish times plus the model instance (for counter checks)."""
    env = Environment()
    disk = disk_cls(env)
    finish: dict[int, float] = {}

    def one(i, start, file_id, runs, write):
        if start:
            yield env.timeout(start)
        yield from disk.io_batch(file_id, runs, write)
        finish[i] = env.now

    for i, batch in enumerate(batches):
        env.process(one(i, *batch))
    env.run()
    assert len(finish) == len(batches)
    return [finish[i] for i in range(len(batches))], disk


# ---------------------------------------------------------------------------
# Queued model unit behavior
# ---------------------------------------------------------------------------


def test_queued_single_run_matches_mech_formula():
    finish, disk = _run_batches(
        QueuedDiskModel, [(0, 1, [(0, 65536)], False)]
    )
    assert finish[0] == pytest.approx(POS + _xfer(65536), rel=1e-12)
    assert disk.reads == 1 and disk.bytes_read == 65536
    assert disk.seeks == 1


def test_queued_batch_charges_one_service_pass():
    """Within a batch, a run continuing the previous one skips the
    positioning cost — same sequential detection as the spindle."""
    runs = [(0, 65536), (65536, 65536), (262144, 65536)]
    finish, disk = _run_batches(QueuedDiskModel, [(0, 1, runs, False)])
    assert finish[0] == pytest.approx(2 * POS + _xfer(3 * 65536), rel=1e-12)
    assert disk.seeks == 2
    assert disk.reads == 3


def test_queued_fifo_serialises_contending_batches():
    finish, disk = _run_batches(
        QueuedDiskModel,
        [(0, 1, [(0, 65536)], False), (0, 2, [(0, 65536)], False)],
    )
    unit = POS + _xfer(65536)
    assert finish[0] == pytest.approx(unit, rel=1e-12)
    assert finish[1] == pytest.approx(2 * unit, rel=1e-12)


def test_queued_idle_gap_resets_queue_horizon():
    """A batch arriving after the disk went idle starts immediately."""
    finish, _ = _run_batches(
        QueuedDiskModel,
        [(0, 1, [(0, 65536)], False), (1.0, 1, [(65536, 65536)], False)],
    )
    # Second batch is sequential (continues the first) and uncontended.
    assert finish[1] == pytest.approx(1.0 + _xfer(65536), rel=1e-12)


def test_queued_queue_length_tracks_backlog():
    env = Environment()
    disk = QueuedDiskModel(env)

    def submit(file_id):
        yield from disk.io_batch(file_id, [(0, 65536)])

    for f in range(3):
        env.process(submit(f))
    probed = {}

    def probe(env):
        yield env.timeout(1e-6)
        probed["queue"] = disk.queue_length

    env.process(probe(env))
    env.run()
    assert probed["queue"] == 2  # two behind the one in service
    assert disk.queue_length == 0


def test_queued_io_compat_single_request():
    """``io()`` (writeback daemon, legacy callers) works unchanged."""
    env = Environment()
    disk = QueuedDiskModel(env)
    done = {}

    def proc(env):
        yield from disk.io(1, 0, 4096, write=True)
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    assert done["t"] == pytest.approx(POS + _xfer(4096), rel=1e-12)
    assert disk.writes == 1 and disk.bytes_written == 4096


def test_queued_negative_size_rejected():
    env = Environment()
    disk = QueuedDiskModel(env)

    def proc(env):
        yield from disk.io_batch(1, [(0, -1)])

    p = env.process(proc(env))
    env.run()
    assert not p.ok


def test_queued_on_run_complete_fires_at_batch_end():
    """Analytic batches land atomically: every run completes at once
    (the documented divergence from the mechanical model)."""
    env = Environment()
    disk = QueuedDiskModel(env)
    landings = []

    def proc(env):
        yield from disk.io_batch(
            1,
            [(0, 4096), (16384, 4096)],
            on_run_complete=lambda i: landings.append((i, env.now)),
        )

    env.process(proc(env))
    env.run()
    assert [i for i, _ in landings] == [0, 1]
    assert landings[0][1] == landings[1][1]


def test_batched_flag_distinguishes_models():
    assert QueuedDiskModel.batched and not DiskModel.batched


# ---------------------------------------------------------------------------
# Equivalence: queued vs mech, per scenario (DESIGN.md §13 tolerances)
# ---------------------------------------------------------------------------

#: (name, batches, per-batch tolerance).  Makespans must agree exactly
#: in every scenario below (seek counts match, service is conserved,
#: FIFO order is the same); the per-batch bound is scenario-dependent
#: because the queued model services a batch atomically while the
#: mechanical spindle lets concurrent batches interleave between runs.
EQUIVALENCE_SCENARIOS = [
    ("solo-one-run", [(0, 1, [(0, 65536)], False)], 1e-9),
    (
        "solo-multi-run",
        [(0, 1, [(0, 65536), (262144, 65536), (524288, 131072)], False)],
        1e-9,
    ),
    (
        "staggered-sequential",
        [(0, 1, [(0, 65536)], False), (0.05, 1, [(65536, 65536)], False)],
        1e-9,
    ),
    (
        "contended-single-runs",
        [(0, 1, [(0, 65536)], False), (0, 2, [(0, 65536)], False)],
        1e-9,
    ),
    (
        "contended-multi-run",
        [
            (0, 1, [(0, 65536), (262144, 65536)], False),
            (0, 2, [(0, 65536), (262144, 65536)], False),
        ],
        # mech: runs interleave a1 b1 a2 b2, so batch a finishes at
        # 3/4 of the makespan; queued finishes it at 2/4.
        0.40,
    ),
    (
        "contended-mixed-sizes",
        [
            (0, 1, [(0, 262144), (1 << 20, 65536)], False),
            (0, 2, [(0, 4096)], False),
            (0.001, 3, [(0, 131072)], True),
        ],
        0.45,
    ),
]


@pytest.mark.parametrize(
    "name,batches,batch_tol",
    EQUIVALENCE_SCENARIOS,
    ids=[s[0] for s in EQUIVALENCE_SCENARIOS],
)
def test_queued_matches_mech_per_scenario(name, batches, batch_tol):
    mech, mech_disk = _run_batches(DiskModel, batches)
    queued, queued_disk = _run_batches(QueuedDiskModel, batches)
    assert max(queued) == pytest.approx(max(mech), rel=1e-9), (
        f"{name}: makespan diverged"
    )
    for counter in ("reads", "writes", "bytes_read", "bytes_written", "seeks"):
        assert getattr(queued_disk, counter) == getattr(mech_disk, counter), (
            f"{name}: {counter} diverged"
        )
    for i, (a, b) in enumerate(zip(mech, queued)):
        rel = abs(a - b) / max(a, b)
        assert rel <= batch_tol, (
            f"{name}: batch {i} finished at {b} (mech: {a}, "
            f"rel diff {rel:.3f} > {batch_tol})"
        )


def test_queued_batch_atomicity_can_only_help_makespan():
    """Where the models diverge — contiguous runs inside contended
    batches — the queued model keeps the batch sequential (no head
    movement between its runs) while the mechanical spindle interleaves
    and re-seeks; the analytic makespan is then a lower bound."""
    batches = [
        (0, 1, [(0, 65536), (65536, 65536)], False),
        (0, 2, [(0, 65536), (65536, 65536)], False),
    ]
    mech, mech_disk = _run_batches(DiskModel, batches)
    queued, queued_disk = _run_batches(QueuedDiskModel, batches)
    assert queued_disk.seeks < mech_disk.seeks
    assert max(queued) < max(mech)


# ---------------------------------------------------------------------------
# Determinism: golden mech hashes, per-model stability
# ---------------------------------------------------------------------------


def test_mech_trace_hash_bit_identical_to_seed(monkeypatch):
    """The batched data path must be a pure refactor for ``mech``:
    the same-seed schedule digest equals the pre-refactor golden."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    assert fig4_point_trace_hash(seed=4242) == GOLDEN_MECH_READ_HASH
    assert (
        fig4_point_trace_hash(d=65536, mode="write", seed=7)
        == GOLDEN_MECH_WRITE_HASH
    )


def test_removed_macro_env_var_is_inert(monkeypatch):
    """The variable selected a read path that no longer exists
    (DESIGN.md appendix A.2); nothing reads it now."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_ENGINE_MACRO", "1")
    assert fig4_point_trace_hash(seed=4242) == GOLDEN_MECH_READ_HASH


def test_removed_net_model_env_var_is_inert(monkeypatch):
    """The variable selected a network model that no longer exists
    (DESIGN.md appendix A.3); nothing reads it now."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_NET_MODEL", "fluid")
    assert fig4_point_trace_hash(seed=4242) == GOLDEN_MECH_READ_HASH


def test_trace_hash_stable_per_disk_model(monkeypatch):
    hashes = {}
    for model in ("mech", "queued"):
        monkeypatch.setenv(DISK_MODEL_ENV_VAR, model)
        first = fig4_point_trace_hash(seed=4242)
        again = fig4_point_trace_hash(seed=4242)
        assert first == again, f"{model} schedule is not reproducible"
        hashes[model] = first
    # The knob must actually select different models.
    assert hashes["mech"] != hashes["queued"]


# ---------------------------------------------------------------------------
# Model selection plumbing
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_disk_model():
    with pytest.raises(ValueError):
        ClusterConfig(disk_model="ssd")


def test_resolved_disk_model_precedence(monkeypatch):
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    assert ClusterConfig().resolved_disk_model == "mech"
    monkeypatch.setenv(DISK_MODEL_ENV_VAR, "queued")
    assert ClusterConfig().resolved_disk_model == "queued"
    # An explicit config wins over the environment.
    assert ClusterConfig(disk_model="mech").resolved_disk_model == "mech"
    monkeypatch.setenv(DISK_MODEL_ENV_VAR, "punch-cards")
    with pytest.raises(ValueError):
        ClusterConfig().resolved_disk_model


def test_cluster_builds_queued_disks(monkeypatch):
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    cluster = make_cluster(disk_model="queued")
    assert cluster.disk_model == "queued"
    for iod in cluster.iods:
        assert isinstance(iod.node.disk, QueuedDiskModel)


def test_cluster_defaults_to_mech(monkeypatch):
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    cluster = make_cluster()
    assert cluster.disk_model == "mech"
    for iod in cluster.iods:
        assert type(iod.node.disk) is DiskModel


# ---------------------------------------------------------------------------
# The iod miss path: coalescing boundaries, zero-capacity page cache
# ---------------------------------------------------------------------------


def test_ensure_resident_coalesces_exact_block_multiple(monkeypatch):
    """A cold read of an exact block multiple is one disk request."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, caching=False)
    client = cluster.client("node0")
    disk = cluster.iods[0].node.disk
    block = cluster.iods[0].block_size

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 16 * block)
        assert disk.reads == 1  # one coalesced 16-block run
        assert disk.bytes_read == 16 * block
        # Straddle the residency boundary: block 15 is resident,
        # block 16 is not -> exactly one more single-block read.
        yield from client.read(f, 16 * block - 1, 2)
        assert disk.reads == 2
        assert disk.bytes_read == 17 * block

    run_app(cluster, app(cluster.env))
    assert cluster.metrics.count("iod.pagecache_misses") == 17
    assert cluster.metrics.count("iod.pagecache_hits") == 1


def test_zero_capacity_pagecache_always_goes_to_disk(monkeypatch):
    """pagecache_blocks=0 must disable residency without corrupting
    the LRU or the miss path (satellite audit)."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    cluster = make_cluster(
        compute_nodes=1, iod_nodes=1, caching=False, pagecache_blocks=0
    )
    client = cluster.client("node0")
    node = cluster.iods[0].node
    block = cluster.iods[0].block_size

    def app(env):
        f = yield from client.open("/f")
        yield from client.read(f, 0, 4 * block)
        yield from client.read(f, 0, 4 * block)  # no residency: re-read
        assert node.disk.reads == 2
        assert node.disk.bytes_read == 8 * block

    run_app(cluster, app(cluster.env))
    assert len(node.pagecache) == 0
    assert cluster.metrics.count("iod.pagecache_hits") == 0
    assert cluster.metrics.count("iod.pagecache_misses") == 8


@pytest.mark.parametrize("disk_model", ["mech", "queued"])
def test_end_to_end_read_your_writes(monkeypatch, disk_model):
    """Both models preserve data correctness through the full stack."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    cluster = make_cluster(caching=False, disk_model=disk_model)
    client = cluster.client("node0")
    payload = bytes(range(256)) * 512  # 128 KB: spans both iods

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, len(payload), payload)
        back = yield from client.read(f, 0, len(payload), want_data=True)
        assert back == payload

    run_app(cluster, app(cluster.env))


def _cold_sweep_makespan(disk_model: str) -> float:
    """Cold-cache concurrent reads through the full cluster stack."""
    cluster = make_cluster(
        caching=False, disk_model=disk_model, pagecache_blocks=0
    )
    env = cluster.env
    procs = []

    def app(node, base):
        client = cluster.client(node)
        f = yield from client.open("/shared")
        for i in range(4):
            yield from client.read(f, base + i * 131072, 131072)

    for idx, node in enumerate(cluster.config.compute_node_names()):
        procs.append(env.process(app(node, idx * (1 << 20))))
    env.run(until=env.all_of(procs))
    return env.now


def test_end_to_end_cold_sweep_makespans_agree(monkeypatch):
    """Disk-bound cluster makespans agree across models within a few
    per cent (contention interleaving is the only divergence)."""
    monkeypatch.delenv(DISK_MODEL_ENV_VAR, raising=False)
    mech = _cold_sweep_makespan("mech")
    queued = _cold_sweep_makespan("queued")
    assert queued == pytest.approx(mech, rel=0.05)


# ---------------------------------------------------------------------------
# Event budget: what the queued model is for
# ---------------------------------------------------------------------------


def _iod_miss_path_replay(disk_cls) -> tuple[int, float]:
    """The iod miss path against the disk stack alone: (events, makespan).

    Four readers sweep disjoint regions whose odd blocks are page-cache
    resident, so every 16-block request coalesces into 8 single-block
    runs — the pattern ``Iod._ensure_resident`` drives: one
    ``lookup_many`` probe, one ``io_batch``, residency inserted per run.
    """
    from repro.disk import PageCache

    readers, requests, span, block = 4, 64, 16, 4096
    env = Environment()
    disk = disk_cls(env)
    pagecache = PageCache(capacity_blocks=readers * requests * span)
    for r in range(readers):
        base = r * requests * span
        for resident in range(base + 1, base + requests * span, 2):
            pagecache.insert(0, resident)

    def reader(r):
        base = r * requests * span
        for i in range(requests):
            first = base + i * span
            _hits, runs = pagecache.lookup_many(0, range(first, first + span))
            yield from disk.io_batch(
                0,
                [(f * block, n * block) for f, n in runs],
                on_run_complete=lambda j, runs=runs: pagecache.insert_many(
                    0, runs[j][0], runs[j][1]
                ),
            )

    for r in range(readers):
        env.process(reader(r))
    env.run()
    assert disk.reads == readers * requests * span // 2
    return env.sched_stats()["events_processed"], env.now


def test_queued_halves_the_event_budget_of_the_iod_miss_path():
    """The queued model replaces a process spawn + Resource round trip
    per coalesced run with two heap events per batch: at most half the
    mechanical model's events (8 200 vs 520, 15.8x, when written), the
    same makespan."""
    mech_events, mech_makespan = _iod_miss_path_replay(DiskModel)
    queued_events, queued_makespan = _iod_miss_path_replay(QueuedDiskModel)
    assert mech_events >= 2 * queued_events, (mech_events, queued_events)
    assert queued_makespan == pytest.approx(mech_makespan, rel=1e-12)
