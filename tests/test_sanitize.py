"""The runtime sanitizer: installation gating, invariant checking,
and the atomic-section race detector."""

import pytest

from repro.analysis.sanitize import (
    InvariantViolation,
    RaceDiagnostic,
    atomic_section,
)
from tests.conftest import make_cluster, run_app


def _manager(cluster, node="node0"):
    return cluster.cache_modules[node].manager


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    assert manager.sanitizer is None
    # the null section is shared and inert
    section = atomic_section(manager.table, label="off")
    with section:
        pass


def test_installed_when_enabled(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    assert manager.sanitizer is not None
    manager.sanitizer.check()  # a fresh cache satisfies the invariant


def test_clean_workload_passes_checks(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/san")
        for i in range(32):
            yield from client.write(f, (i % 12) * 4096, 4096)
            yield from client.read(f, (i % 12) * 4096, 4096)

    run_app(cluster, app(cluster.env))
    sanitizer = _manager(cluster).sanitizer
    assert sanitizer.checks_run > 100
    sanitizer.check()


def test_invariant_catches_policy_drift(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    # corrupt: the policy starts tracking a frame that is not resident
    manager.policy.admit(manager.blocks[0])
    with pytest.raises(InvariantViolation, match="policy out of sync"):
        manager.sanitizer.check()


def test_invariant_catches_dirty_list_drift(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/drift")
        yield from client.write(f, 0, 4096)

    run_app(cluster, app(cluster.env))
    manager = _manager(cluster)
    dirty = manager.dirtylist.snapshot()
    assert dirty, "the write should have left a dirty block"
    # corrupt: a DIRTY block silently leaves the dirty list
    manager.dirtylist.discard(dirty[0])
    with pytest.raises(InvariantViolation, match="not on the dirty list"):
        manager.sanitizer.check()


def test_atomic_section_reports_both_processes(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    # keep the periodic checker quiet; this test is about the race
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1000000")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    env = cluster.env
    manager = _manager(cluster)
    block = manager.blocks[0]

    def victim(env):
        with atomic_section(manager.policy, label="crit"):
            yield env.timeout(1.0)

    def attacker(env):
        yield env.timeout(0.5)
        # net no-op mutation: the structure ends consistent, but the
        # interleaving itself is the bug the section must report
        manager.policy.admit(block)
        manager.policy.forget_run([block])

    proc = env.process(victim(env), name="victim")
    env.process(attacker(env), name="attacker")
    with pytest.raises(RaceDiagnostic) as excinfo:
        env.run(until=proc)
    diag = excinfo.value
    assert diag.holder == "victim"
    assert diag.mutator == "attacker"
    assert diag.label == "crit"
    assert "victim" in str(diag) and "attacker" in str(diag)


def test_atomic_section_allows_own_mutations(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1000000")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    env = cluster.env
    manager = _manager(cluster)
    block = manager.blocks[0]

    def worker(env):
        with atomic_section(manager.policy, label="self-mutation"):
            manager.policy.admit(block)
            manager.policy.forget_run([block])
            yield env.timeout(1.0)

    proc = env.process(worker(env), name="worker")
    env.run(until=proc)  # must not raise


def test_reservation_check_accepts_unmaterialised_and_rejects_fired(
    monkeypatch,
):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    # an allocator nobody waits behind reserves with None: legal
    manager._inflight[(9, 0)] = None
    manager.sanitizer.check()
    # the first rival materialises the event: still legal while pending
    reservation = manager._inflight[(9, 0)] = cluster.env.event()
    manager.sanitizer.check()
    # corrupt: resolved but left in the map
    reservation.succeed(None)
    with pytest.raises(InvariantViolation, match="already fired"):
        manager.sanitizer.check()


def test_freelist_release_without_put_event_is_still_tracked(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1000000")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    env = cluster.env
    manager = _manager(cluster)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/release")
        yield from client.read(f, 0, 4096)

    run_app(cluster, app(env))
    (block,) = manager.table.blocks()

    def victim(env):
        with atomic_section(manager.freelist, label="crit"):
            yield env.timeout(1.0)

    def attacker(env):
        yield env.timeout(0.5)
        before = env.sched_stats()["queue_depth"]
        manager.evict([block])  # FreeList.release -> Store.put_nowait
        assert env.sched_stats()["queue_depth"] == before  # no StorePut

    proc = env.process(victim(env), name="victim")
    env.process(attacker(env), name="attacker")
    with pytest.raises(RaceDiagnostic) as excinfo:
        env.run(until=proc)
    assert excinfo.value.holder == "victim"
    assert excinfo.value.mutator == "attacker"
    assert excinfo.value.structure.endswith(".freelist")


def test_step_hooks_see_every_in_place_turn(monkeypatch):
    """Under the sanitizer the booked StoreGet steps still reach the
    step hooks — one call per processed event — and every check passes."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=32)
    env = cluster.env
    calls = []
    env.add_step_hook(lambda e: calls.append(None))
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/misses")
        for i in range(64):
            yield from client.read(f, i * 4096, 4096)

    run_app(cluster, app(env))
    stats = env.sched_stats()
    assert stats["turns_in_place"] > 0
    assert len(calls) == stats["events_processed"]
    sanitizer = _manager(cluster).sanitizer
    assert sanitizer.checks_run == stats["events_processed"]
    sanitizer.check()


def test_step_hooks_see_every_turn_of_a_run(monkeypatch):
    """Runs take several frames per probe and the harvester evicts in
    batches; the sanitizer still sees one step per processed event and
    every check (one per step) passes."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=64)
    env = cluster.env
    calls = []
    env.add_step_hook(lambda e: calls.append(None))
    client = cluster.client("node0")
    manager = _manager(cluster)
    probes = []
    probe = manager.probe

    def counting_probe(*args):
        probes.append(None)
        return probe(*args)

    manager.probe = counting_probe

    def app(env):
        f = yield from client.open("/runs")
        for i in range(24):
            yield from client.read(f, i * 64 * 1024, 64 * 1024)

    run_app(cluster, app(env))
    stats = env.sched_stats()
    assert stats["turns_in_place"] > 2 * len(probes)  # multi-frame runs
    counters = cluster.metrics.counters
    assert counters["harvester.freed"] > 2 * counters["harvester.activations"]
    assert len(calls) == stats["events_processed"]
    sanitizer = manager.sanitizer
    assert sanitizer.checks_run == stats["events_processed"]
    sanitizer.check()


def test_atomic_section_catches_a_foreign_batch_eviction(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1000000")
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=16)
    env = cluster.env
    manager = _manager(cluster)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/batch")
        yield from client.read(f, 0, 3 * 4096)

    run_app(cluster, app(env))
    blocks = list(manager.table.blocks())
    assert len(blocks) == 3

    def victim(env):
        with atomic_section(manager.policy, label="crit"):
            yield env.timeout(1.0)

    def attacker(env):
        yield env.timeout(0.5)
        manager.evict(blocks)  # one forget_run for the whole batch

    proc = env.process(victim(env), name="victim")
    env.process(attacker(env), name="attacker")
    with pytest.raises(RaceDiagnostic) as excinfo:
        env.run(until=proc)
    assert excinfo.value.holder == "victim"
    assert excinfo.value.mutator == "attacker"
    assert excinfo.value.structure.endswith(".policy")
