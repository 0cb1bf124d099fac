"""The buffer manager's block-accounting invariant
(:meth:`~repro.cache.manager.BufferManager.check_invariants`): drift
it must catch, workloads that must hold it at every step, and the
step hook that checks it once per processed event.

The fuzz test drives two clients on different nodes through one
shared file with a random interleaving of ``read``/``write``/
``sync_write`` (the coherent path triggers cross-node invalidations)
while the invariant is checked at a tight cadence.  Any drift between
the hash table, free list, dirty list, replacement policy and pin
counts fails the run with a diagnostic instead of silently corrupting
the simulation.
"""

import numpy as np
import pytest

from repro.cache import InvariantViolation
from repro.cache.block import BlockState
from tests.conftest import check_invariants_every, make_cluster, run_app

#: 2 nodes x 3 seeds x OPS_PER_CLIENT = 5400 operations >= the 5k floor.
OPS_PER_CLIENT = 900

SEEDS = [7, 1234, 20020902]


def _manager(cluster, node="node0"):
    return cluster.cache_modules[node].manager


def test_clean_workload_passes_checks():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    _manager(cluster).check_invariants()  # a fresh cache holds it
    sweeps = check_invariants_every(cluster, 1)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/san")
        for i in range(32):
            yield from client.write(f, (i % 12) * 4096, 4096)
            yield from client.read(f, (i % 12) * 4096, 4096)

    run_app(cluster, app(cluster.env))
    assert len(sweeps) > 100
    _manager(cluster).check_invariants()


def test_invariant_catches_policy_drift():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    # corrupt: the policy starts tracking a frame that is not resident
    manager.policy.admit_run((manager.blocks[0],))
    with pytest.raises(InvariantViolation, match="policy out of sync"):
        manager.check_invariants()


def test_invariant_catches_dirty_list_drift():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/drift")
        yield from client.write(f, 0, 4096)

    run_app(cluster, app(cluster.env))
    manager = _manager(cluster)
    dirty = list(manager.dirtylist)
    assert dirty, "the write should have left a dirty block"
    # corrupt: a DIRTY block silently leaves the dirty list
    del manager.dirtylist[dirty[0]]
    with pytest.raises(InvariantViolation, match="not on the dirty list"):
        manager.check_invariants()


def test_invariant_catches_a_block_under_another_key():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/moved")
        yield from client.read(f, 0, 4096)

    run_app(cluster, app(cluster.env))
    table = _manager(cluster).table
    ((file_id, block_no), block), = table.items()
    # corrupt: the hash table files the block under a key not its own
    del table[(file_id, block_no)]
    table[(file_id, block_no + 1)] = block
    with pytest.raises(InvariantViolation, match="in the hash table under"):
        _manager(cluster).check_invariants()


def _doomed_under_write_back():
    """A cluster whose node0 holds block 0 DIRTY, marked by one write
    in flight and then doomed by an invalidation."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=8)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/wb")
        yield from client.write(f, 0, 4096)
        return f.file_id

    file_id = run_app(cluster, app(cluster.env))
    manager = _manager(cluster)
    block = manager.table.get((file_id, 0))
    block.writeback += 1
    assert manager.invalidate((file_id, 0))
    assert block.doomed and block.state is not BlockState.FREE
    manager.check_invariants()
    return manager, block


def test_invariant_catches_a_block_freed_under_write_back():
    manager, block = _doomed_under_write_back()
    # corrupt: the frame is freed before its write's ack
    manager.release_doomed(block)
    with pytest.raises(InvariantViolation, match="FREE block .* write-back"):
        manager.check_invariants()


def test_invariant_catches_a_doomed_block_outliving_its_write_back():
    manager, block = _doomed_under_write_back()
    # corrupt: the ack drops the mark but leaves the doomed frame
    block.writeback -= 1
    with pytest.raises(InvariantViolation, match="write-back ack"):
        manager.check_invariants()
    block.writeback += 1
    manager.end_writeback(block)  # the real ack frees it
    assert block.state is BlockState.FREE
    manager.check_invariants()


def test_invariant_catches_a_flush_batch_holding_no_mark():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    manager.blocks[0].flushing = True
    with pytest.raises(InvariantViolation, match="flush batch but unmarked"):
        manager.check_invariants()


def test_reservation_check_accepts_unmaterialised_and_rejects_fired():
    cluster = make_cluster(compute_nodes=1, iod_nodes=1)
    manager = _manager(cluster)
    # an allocator nobody waits behind reserves with None: legal
    manager._inflight[(9, 0)] = None
    manager.check_invariants()
    # the first rival materialises the event: still legal while pending
    reservation = manager._inflight[(9, 0)] = cluster.env.event()
    manager.check_invariants()
    # corrupt: resolved but left in the map
    reservation.succeed(None)
    with pytest.raises(InvariantViolation, match="already fired"):
        manager.check_invariants()


def test_step_hooks_see_every_in_place_turn():
    """The booked StoreGet steps still reach the step hooks — one call
    per processed event — and every check passes."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=32)
    env = cluster.env
    sweeps = check_invariants_every(cluster, 1)
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/misses")
        for i in range(64):
            yield from client.read(f, i * 4096, 4096)

    run_app(cluster, app(env))
    stats = env.sched_stats()
    assert stats["turns_in_place"] > 0
    assert len(sweeps) == stats["events_processed"]
    _manager(cluster).check_invariants()


def test_step_hooks_see_every_turn_of_a_run():
    """Runs take several frames per probe and the harvester evicts in
    batches; the hook still sees one step per processed event and every
    check (one per step) passes."""
    cluster = make_cluster(compute_nodes=1, iod_nodes=1, cache_blocks=64)
    env = cluster.env
    sweeps = check_invariants_every(cluster, 1)
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
    assert len(sweeps) == stats["events_processed"]
    manager.check_invariants()


def _fuzz_app(client, handle_path, rng, n_ops):
    f = yield from client.open(handle_path)
    for _ in range(n_ops):
        dice = rng.random()
        # offsets deliberately overlap across clients and straddle
        # block boundaries (non-4096-aligned starts, 1-2 block spans)
        offset = int(rng.integers(0, 48)) * 1024
        nbytes = int(rng.integers(1, 9)) * 512
        if dice < 0.50:
            yield from client.read(f, offset, nbytes)
        elif dice < 0.85:
            yield from client.write(f, offset, nbytes)
        else:
            yield from client.sync_write(f, offset, nbytes)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_workload_holds_invariants(seed):
    # tiny cache: constant eviction pressure exercises the harvester
    # and the free-list paths, not just steady-state hits
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, cache_blocks=12)
    env = cluster.env
    sweeps = check_invariants_every(cluster, 8)
    procs = []
    for i, node in enumerate(("node0", "node1")):
        client = cluster.client(node)
        rng = np.random.default_rng(seed + 101 * i)
        procs.append(
            env.process(
                _fuzz_app(client, "/fuzz-shared", rng, OPS_PER_CLIENT),
                name=f"fuzzer-{node}",
            )
        )
    env.run(until=env.all_of(procs))
    # under run() the probe takes frames in place: those turns are
    # checked too
    assert env.sched_stats()["turns_in_place"] > 0
    assert len(sweeps) > 1000
    for node in ("node0", "node1"):
        # one final full validation at quiescence
        _manager(cluster, node).check_invariants()
