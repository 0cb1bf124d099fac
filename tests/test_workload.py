"""Tests for the micro-benchmark access pattern and application."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.pattern import AccessPattern
from repro.workload.microbench import MicroBenchmark, MicroBenchParams
from repro.workload.runner import run_instances
from repro.cluster.config import ClusterConfig
from tests.conftest import make_cluster


# -- AccessPattern --------------------------------------------------------


def _pattern(**kw):
    defaults = dict(
        request_size=4096,
        partition_start=0,
        partition_bytes=65536,
        locality=0.0,
        sharing=0.0,
        seed=1,
    )
    defaults.update(kw)
    return AccessPattern(**defaults)


def test_pattern_validation():
    with pytest.raises(ValueError):
        _pattern(request_size=0)
    with pytest.raises(ValueError):
        _pattern(partition_bytes=100, request_size=4096)
    with pytest.raises(ValueError):
        _pattern(locality=1.5)
    with pytest.raises(ValueError):
        _pattern(sharing=-0.1)


def test_zero_locality_all_fresh_sequential():
    p = _pattern(locality=0.0)
    descs = list(p.stream(8))
    assert all(d.fresh for d in descs)
    assert [d.offset for d in descs] == [i * 4096 for i in range(8)]


def test_full_locality_repeats_first_offset():
    p = _pattern(locality=1.0)
    descs = list(p.stream(10))
    assert descs[0].fresh
    assert all(not d.fresh for d in descs[1:])
    assert all(d.offset == descs[0].offset for d in descs)


def test_partition_start_respected():
    p = _pattern(partition_start=1 << 20)
    desc = p.next()
    assert desc.offset == 1 << 20


def test_wrapping_at_partition_end():
    p = _pattern(partition_bytes=3 * 4096)
    offsets = [p.next().offset for _ in range(6)]
    assert offsets == [0, 4096, 8192, 0, 4096, 8192]


def _per_request_reference(p: AccessPattern, n: int):
    """``n`` requests drawn one call at a time, as ``next()`` once did."""
    cursor, last, out = p._cursor, p._last, []
    for _ in range(n):
        target = "shared" if p._uniform() < p.sharing else "private"
        if last[target] is not None and p._uniform() < p.locality:
            out.append((target, last[target], p.request_size, False))
            continue
        slot = cursor[target] % p.requests_per_pass
        cursor[target] += 1
        last[target] = p.partition_start + slot * p.request_size
        out.append((target, last[target], p.request_size, True))
    return out


@settings(max_examples=60, deadline=None)
@given(
    locality=st.floats(0, 1) | st.sampled_from([0.0, 0.5, 1.0]),
    sharing=st.floats(0, 1) | st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    start_slot=st.integers(0, 40),
    lengths=st.lists(st.integers(0, 300), min_size=1, max_size=4),
)
def test_stream_draws_what_per_request_calls_drew(
    locality, sharing, seed, start_slot, lengths
):
    kw = dict(
        partition_start=1 << 20, partition_bytes=7 * 4096,
        locality=locality, sharing=sharing, seed=seed,
        shared_start_slot=start_slot,
    )
    got, want = _pattern(**kw), _pattern(**kw)
    for n in lengths:  # successive streams and single requests continue
        drawn = [
            (d.target, d.offset, d.nbytes, d.fresh) for d in got.stream(n)
        ]
        assert drawn == _per_request_reference(want, n)
        d = got.next()
        assert [(d.target, d.offset, d.nbytes, d.fresh)] == (
            _per_request_reference(want, 1)
        )


def test_sharing_zero_all_private():
    p = _pattern(sharing=0.0)
    assert all(d.target == "private" for d in p.stream(20))


def test_sharing_one_all_shared():
    p = _pattern(sharing=1.0)
    assert all(d.target == "shared" for d in p.stream(20))


def test_mixed_sharing_statistics():
    p = _pattern(sharing=0.5, seed=7)
    targets = [d.target for d in p.stream(500)]
    shared_fraction = targets.count("shared") / len(targets)
    assert 0.4 < shared_fraction < 0.6


def test_mixed_locality_statistics():
    p = _pattern(locality=0.7, seed=7, partition_bytes=1 << 22)
    descs = list(p.stream(500))
    revisit_fraction = sum(1 for d in descs if not d.fresh) / len(descs)
    assert 0.6 < revisit_fraction < 0.8


def test_deterministic_given_seed():
    def pat():
        return _pattern(locality=0.5, sharing=0.5, seed=3)

    a = [(d.target, d.offset) for d in pat().stream(50)]
    b = [(d.target, d.offset) for d in pat().stream(50)]
    assert a == b


def test_descriptor_sequence_is_pinned():
    """Digest taken when ``next()`` made one scalar ``rng.random()``
    call per coin: drawing the uniforms in blocks must not move it."""
    acc = hashlib.blake2b(digest_size=16)
    for locality in (0.0, 0.5, 0.9, 1.0):
        for sharing in (0.0, 0.8, 1.0):
            pattern = _pattern(
                partition_start=1 << 20, partition_bytes=64 * 4096,
                locality=locality, sharing=sharing, seed=1234,
                shared_start_slot=2,
            )
            # 3000 requests draw 3000-6000 coins: several blocks' worth
            for d in pattern.stream(3000):
                acc.update(
                    f"{d.target},{d.offset},{d.nbytes},{d.fresh};".encode()
                )
                assert not hasattr(d, "__dict__")
    assert acc.hexdigest() == "f1d37717f31ea18441dfac6850ccf3b8"


def test_per_target_cursors_independent():
    p = _pattern(sharing=0.5, seed=11)
    descs = list(p.stream(100))
    for target in ("shared", "private"):
        fresh_offsets = [d.offset for d in descs if d.target == target and d.fresh]
        assert fresh_offsets == sorted(fresh_offsets) or len(
            set(fresh_offsets)
        ) < len(fresh_offsets)
        # sequential walk: consecutive fresh offsets advance by d
        for a, b in zip(fresh_offsets, fresh_offsets[1:]):
            assert (b - a) % 4096 == 0


@settings(max_examples=50)
@given(
    locality=st.floats(0, 1),
    sharing=st.floats(0, 1),
    seed=st.integers(0, 1000),
)
def test_property_offsets_stay_in_partition(locality, sharing, seed):
    p = _pattern(
        locality=locality, sharing=sharing, seed=seed,
        partition_start=8192, partition_bytes=65536,
    )
    for d in p.stream(100):
        assert 8192 <= d.offset < 8192 + 65536
        assert d.offset + d.nbytes <= 8192 + 65536 + 4096  # within partition hull
        assert d.nbytes == 4096


# -- MicroBenchParams ------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        MicroBenchParams(nodes=[], request_size=4096, iterations=1)
    with pytest.raises(ValueError):
        MicroBenchParams(nodes=["n"], request_size=4096, iterations=0)
    with pytest.raises(ValueError):
        MicroBenchParams(nodes=["n"], request_size=4096, iterations=1, mode="append")


def test_params_derived_values():
    p = MicroBenchParams(
        nodes=["a", "b"], request_size=1024, iterations=10, instance=3
    )
    assert p.p == 2
    assert p.total_bytes_per_process == 10240
    assert p.private_path == "/private/instance-3"


def test_makespan_before_finish_raises():
    p = MicroBenchParams(nodes=["a"], request_size=1024, iterations=1)
    bench = MicroBenchmark(p)
    with pytest.raises(RuntimeError):
        _ = bench.makespan


# -- end-to-end benchmark runs -----------------------------------------------


def test_run_instances_read_mode():
    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=True)
    params = MicroBenchParams(
        nodes=config.compute_node_names(),
        request_size=16384,
        iterations=4,
        mode="read",
        locality=0.5,
        partition_bytes=1 << 20,
    )
    out = run_instances(config, [params])
    assert out.makespan > 0
    assert len(out.instances) == 1
    assert set(out.instances[0].per_rank) == {0, 1}
    assert out.counter("client.reads") == 8
    assert 0 <= out.cache_hit_ratio <= 1


def test_run_instances_write_and_sync_modes():
    config = ClusterConfig(compute_nodes=1, iod_nodes=1, caching=True)
    for mode, counter in (
        ("write", "client.writes"),
        ("sync_write", "client.sync_writes"),
    ):
        params = MicroBenchParams(
            nodes=["node0"], request_size=8192, iterations=3, mode=mode,
            partition_bytes=1 << 20,
        )
        out = run_instances(config, [params])
        assert out.counter(counter) == 3
    with pytest.raises(ValueError, match="unknown mode"):
        MicroBenchParams(
            nodes=["node0"], request_size=8192, iterations=3,
            mode="sync-write",
        )


def test_two_instances_sharing_produces_cross_hits():
    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=True)
    insts = [
        MicroBenchParams(
            nodes=config.compute_node_names(), request_size=16384,
            iterations=8, mode="read", sharing=1.0, instance=i,
            partition_bytes=1 << 20, seed=5 + i,
        )
        for i in range(2)
    ]
    out = run_instances(config, insts)
    assert out.counter("cache.hits") > 0
    assert len(out.instances) == 2


def test_want_data_roundtrip_through_benchmark():
    """Payload mode: written bytes must read back identically."""
    config = ClusterConfig(compute_nodes=1, iod_nodes=1, caching=True)
    w = MicroBenchParams(
        nodes=["node0"], request_size=8192, iterations=4, mode="write",
        locality=0.0, partition_bytes=1 << 20, want_data=True,
    )
    out = run_instances(config, [w])
    cluster = out.cluster

    def verify(env):
        client = cluster.client("node0", use_cache=True)
        f = yield from client.open(w.private_path)
        data = yield from client.read(f, 0, 8192, want_data=True)
        expected = MicroBenchmark._payload(0, 8192)
        assert data == expected

    proc = cluster.env.process(verify(cluster.env))
    cluster.env.run(until=proc)


def test_warmup_does_not_pollute_metrics():
    config = ClusterConfig(compute_nodes=1, iod_nodes=1, caching=False)
    params = MicroBenchParams(
        nodes=["node0"], request_size=16384, iterations=2, mode="read",
        partition_bytes=1 << 20, warmup=True,
    )
    out = run_instances(config, [params])
    assert out.counter("client.reads") == 2  # warmup reads unrecorded
