"""Open-loop workload generation: samplers, traces, measurement.

The sampler tests pin golden first-20-draw streams per seed — the
open-loop generator's determinism contract is that a workload is a
pure function of its parameters, on any host, serially and inside
``repro.experiments.parallel`` sweep workers.
"""

import math

import pytest

from repro.experiments import parallel
from repro.workload.openloop import (
    OpenLoopParams,
    PoissonArrivals,
    ZipfSampler,
    generate,
    is_open_loop,
    offered_load_stats,
    report_from_series,
    run_open_loop,
)
from repro.workload.trace import validate_trace

# -- golden streams (first 20 draws per seed) --------------------------------

GOLDEN_ZIPF = {
    0: [28, 0, 63, 63, 63, 63, 2, 0, 23, 47, 0, 10, 63, 15, 19, 1, 0, 63, 63, 2],
    7: [63, 0, 63, 2, 1, 9, 1, 22, 0, 26, 8, 0, 49, 3, 63, 0, 3, 0, 2, 63],
}

GOLDEN_POISSON = {
    0: [
        0.000679932, 0.001019597, 1.9807e-05, 2.269e-06, 0.000550343,
        0.00162994, 0.000673583, 0.000755301, 0.002816786, 0.006057753,
        0.003286428, 1.288e-06, 0.002269095, 7.2498e-05, 0.0010694,
        0.000848933, 0.003149909, 0.00035401, 0.000307111, 0.001492219,
    ],
    7: [
        0.000707529, 0.001025203, 0.000568549, 0.00089511, 0.000206533,
        0.003383637, 9.754e-06, 0.002809216, 0.000575333, 0.000300534,
        0.000541136, 0.000312146, 0.00089977, 0.001073701, 0.00188425,
        0.000222071, 0.003144673, 0.000735857, 0.000348373, 0.000883565,
    ],
}


def zipf_first20(seed: int) -> list[int]:
    """Module-level so parallel sweep workers can pickle it."""
    return ZipfSampler(1.3, 64, seed).draws(20)


def poisson_first20(seed: int) -> list[float]:
    return [round(g, 9) for g in PoissonArrivals(1000.0, seed).gaps(20)]


@pytest.mark.parametrize("seed", sorted(GOLDEN_ZIPF))
def test_zipf_golden_stream(seed):
    assert zipf_first20(seed) == GOLDEN_ZIPF[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_POISSON))
def test_poisson_golden_stream(seed):
    assert poisson_first20(seed) == GOLDEN_POISSON[seed]


def test_sampler_streams_identical_in_parallel_workers(monkeypatch):
    """The same seed yields the same stream inside sweep workers."""
    monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
    seeds = sorted(GOLDEN_ZIPF)
    points = [(s,) for s in seeds]
    assert parallel.sweep(points, zipf_first20, max_workers=2) == [
        GOLDEN_ZIPF[s] for s in seeds
    ]
    assert parallel.sweep(points, poisson_first20, max_workers=2) == [
        GOLDEN_POISSON[s] for s in seeds
    ]


# -- sampler semantics --------------------------------------------------------


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfSampler(1.0, 64, 0)
    with pytest.raises(ValueError):
        ZipfSampler(1.3, 0, 0)


def test_zipf_draws_stay_in_namespace():
    draws = ZipfSampler(1.1, 8, 123).draws(500)
    assert all(0 <= r < 8 for r in draws)
    # Heavy tail: rank 0 dominates.
    assert draws.count(0) > draws.count(7 - 1)


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0, 0)


def test_poisson_mean_rate():
    gaps = PoissonArrivals(500.0, 42).gaps(4000)
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 500.0, rel=0.1)


# -- parameter validation ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"processes": 0},
        {"duration_s": 0.0},
        {"rate_ops_s": 0.0},
        {"n_files": 0},
        {"sharing": 1.5},
        {"churn": -0.1},
        {"read_fraction": 0.8, "write_fraction": 0.4},
        {"access": "random"},
        {"request_bytes": 0},
        {"file_bytes": 1024, "request_bytes": 4096},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        OpenLoopParams(**kwargs)


# -- generation ----------------------------------------------------------------


def test_generate_is_deterministic():
    params = OpenLoopParams(processes=3, duration_s=0.2, rate_ops_s=600, seed=5)
    assert generate(params).content_hash() == generate(params).content_hash()


#: ``generate(p).dumps()``'s BLAKE2b digest for the two shapes the
#: program runs: the bench ``meta_openloop`` workload at its reference
#: length (``bench/workloads.py`` ``open_loop_trace``, seed 1) and the
#: mgr-scaling knee point (``repro.experiments.scaling.knee_params(64)``,
#: its default seed).  The params are copied as literals, so a change to
#: the generator, not to a caller, is what moves these.
GOLDEN_GENERATE_DIGESTS = {
    "meta_openloop": (
        dict(
            processes=64, duration_s=8.5, rate_ops_s=3000.0, churn=1.0,
            read_fraction=0.0, write_fraction=1.0, request_bytes=4096,
            access="uniform", seed=1,
        ),
        "d0a47520f9899a8d24d643e45df833d9",
    ),
    "scaling_knee": (
        dict(
            processes=64, duration_s=0.15, rate_ops_s=16000.0, churn=1.0,
            read_fraction=0.0, write_fraction=1.0, access="uniform",
            file_bytes=16 << 20, seed=11,
        ),
        "8ac2a37ebf73c655f0d45cb8f87c669f",
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_GENERATE_DIGESTS))
def test_generate_bytes_are_pinned_for_the_programs_shapes(shape):
    import hashlib

    kwargs, digest = GOLDEN_GENERATE_DIGESTS[shape]
    text = generate(OpenLoopParams(**kwargs)).dumps()
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == digest


def test_generate_different_seeds_differ():
    base = OpenLoopParams(processes=3, duration_s=0.2, rate_ops_s=600, seed=5)
    other = OpenLoopParams(processes=3, duration_s=0.2, rate_ops_s=600, seed=6)
    assert generate(base).content_hash() != generate(other).content_hash()


def test_generate_meta_and_shape():
    params = OpenLoopParams(processes=4, duration_s=0.25, rate_ops_s=800, seed=1)
    trace = generate(params)
    assert is_open_loop(trace)
    assert trace.meta["offered_ops"] == len(trace.events)
    assert trace.meta["arrival"] == "poisson"
    assert set(e.process for e in trace.events) <= set(params.process_names())
    assert all(0 < e.time <= params.duration_s for e in trace.events)
    assert all(e.nbytes == params.request_bytes for e in trace.events)
    assert validate_trace(trace) == []


def test_generate_op_mix_respects_fractions():
    params = OpenLoopParams(
        processes=2,
        duration_s=1.0,
        rate_ops_s=2000,
        read_fraction=1.0,
        write_fraction=0.0,
        seed=2,
    )
    assert set(e.op for e in generate(params).events) == {"read"}


def test_generate_sharing_namespaces():
    all_shared = generate(
        OpenLoopParams(processes=2, duration_s=0.5, rate_ops_s=400,
                       sharing=1.0, seed=3)
    )
    assert all(e.path.startswith("/shared/") for e in all_shared.events)
    private = generate(
        OpenLoopParams(processes=2, duration_s=0.5, rate_ops_s=400,
                       sharing=0.0, seed=3)
    )
    assert all(e.path.startswith("/p") for e in private.events)


def test_generate_churn_creates_fresh_files():
    trace = generate(
        OpenLoopParams(processes=2, duration_s=0.5, rate_ops_s=400,
                       churn=1.0, seed=4)
    )
    # Every path is unique: pure namespace churn.
    paths = [e.path for e in trace.events]
    assert len(set(paths)) == len(paths)
    assert all("/new" in p for p in paths)


def test_generate_uniform_offsets_are_request_aligned():
    params = OpenLoopParams(
        processes=2, duration_s=0.3, rate_ops_s=500,
        access="uniform", file_bytes=1 << 20, seed=6,
    )
    trace = generate(params)
    offsets = {e.offset for e in trace.events}
    assert len(offsets) > 1  # actually spread
    assert all(off % params.request_bytes == 0 for off in offsets)
    assert all(
        off + params.request_bytes <= params.file_bytes for off in offsets
    )


def test_generate_seq_cursors_wrap():
    params = OpenLoopParams(
        processes=1, duration_s=0.5, rate_ops_s=600, n_files=1,
        sharing=1.0, file_bytes=16384, seed=7,
    )
    trace = generate(params)
    offsets = [e.offset for e in trace.events]
    assert max(offsets) + params.request_bytes <= params.file_bytes
    assert offsets.count(0) > 1  # wrapped at least once


# -- offered-load stats and validation ------------------------------------------


def test_offered_load_stats():
    params = OpenLoopParams(processes=4, duration_s=0.5, rate_ops_s=800, seed=8)
    trace = generate(params)
    load = offered_load_stats(trace)
    assert load["offered_ops"] == len(trace.events)
    # Uses the declared horizon as denominator, not the span.
    assert load["offered_ops_per_s"] == pytest.approx(
        len(trace.events) / 0.5
    )
    assert load["per_process_ops_per_s"] == pytest.approx(
        load["offered_ops_per_s"] / 4
    )


def test_offered_load_stats_empty_trace():
    from repro.workload.trace import Trace

    assert offered_load_stats(Trace([]))["offered_ops"] == 0


def test_validate_trace_open_loop_skips_zero_byte_heuristic():
    from repro.workload.trace import Trace, TraceEvent

    events = [
        TraceEvent(
            time=0.1, process="p0", path="/a", op="read", offset=0, nbytes=0
        )
    ]
    closed = Trace(list(events))
    assert "every event transfers zero bytes" in validate_trace(closed)
    opened = Trace(list(events), meta={"open_loop": True})
    assert validate_trace(opened) == []


def test_validate_trace_open_loop_checks_declared_meta():
    params = OpenLoopParams(processes=2, duration_s=0.2, rate_ops_s=500, seed=9)
    trace = generate(params)
    trace.meta["offered_ops"] = len(trace.events) + 3
    issues = validate_trace(trace)
    assert any("offered ops" in issue for issue in issues)
    trace.meta["offered_ops"] = len(trace.events)
    trace.meta["duration_s"] = trace.events[-1].time / 2
    issues = validate_trace(trace)
    assert any("schedule horizon" in issue for issue in issues)


def test_cli_validate_reports_offered_load(tmp_path, capsys):
    from repro.workload.__main__ import main

    trace = generate(
        OpenLoopParams(processes=2, duration_s=0.3, rate_ops_s=600, seed=10)
    )
    path = tmp_path / "ol.jsonl"
    path.write_text(trace.dumps())
    assert main(["validate", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "offered load" in out


# -- measurement -----------------------------------------------------------------


def test_report_percentiles_and_saturation():
    params = OpenLoopParams(processes=1, duration_s=1.0, rate_ops_s=100, seed=11)
    trace = generate(params)
    series = {"client.read_latency": [0.001 * (i + 1) for i in range(100)]}
    report = report_from_series(trace, makespan_s=1.0, series=series)
    assert report.p50_s == pytest.approx(0.050)
    assert report.p95_s == pytest.approx(0.095)
    assert report.p99_s == pytest.approx(0.099)
    assert not report.saturated
    behind = report_from_series(trace, makespan_s=2.0, series=series)
    assert behind.saturated
    assert behind.completed_ops_per_s == pytest.approx(
        report.completed_ops_per_s / 2
    )


def test_report_empty_series_is_nan():
    trace = generate(
        OpenLoopParams(processes=1, duration_s=0.1, rate_ops_s=100, seed=12)
    )
    report = report_from_series(trace, makespan_s=0.1, series={})
    assert math.isnan(report.p50_s)


def test_run_open_loop_unsaturated_cluster():
    from repro.cluster.config import ClusterConfig

    # Cold 4 KB reads cost ~40 ms (disk + wire), so stay well under
    # that: 10 ops/s per process leaves 100 ms between arrivals.
    params = OpenLoopParams(
        processes=4, duration_s=0.25, rate_ops_s=40,
        read_fraction=1.0, write_fraction=0.0, seed=13,
    )
    report = run_open_loop(ClusterConfig(compute_nodes=4, iod_nodes=4), params)
    assert report.offered_ops > 0
    assert report.makespan_s > 0
    # Light load: the run keeps up with its arrival schedule.
    assert not report.saturated
    assert report.completed_ops_per_s >= report.offered_ops_per_s * 0.9
    assert report.p50_s > 0
