"""Smoke test of the benchmark itself at 1/50 scale.

Run with ``PYTHONPATH=src python -m pytest bench/`` (tier-1 collects
``tests/`` only).  Checks the harness, not the program's speed: every
named metric is reported, simulated metrics repeat exactly, tracing is
schedule-neutral, and each workload's defining property really guards
it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import check, compare, passes, run
from bench.metrics import END_TO_END, HOST_SHARE_LAYERS, PER_LAYER, SIM_METRICS
from bench.workloads import REFERENCE_SECONDS, WORKLOADS, synthesize

SECONDS = REFERENCE_SECONDS / 50


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("bench-out"))


@pytest.fixture(scope="module")
def traced_runs(out_dir):
    """Every workload once, all passes, through fresh children."""
    return {
        name: run.run_workload(name, 1, SECONDS, True, out_dir)
        for name in WORKLOADS
    }


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def test_benchmark_json_names_what_the_harness_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


def test_every_metric_is_reported_and_outputs_are_correct(traced_runs):
    for name, result in traced_runs.items():
        assert result["problems"] == [], name
        assert result["correct"] and result["failed"] == 0, name
        values = {**result["end_to_end"], **result["layers"]}
        for metric in (*(m[0] for m in END_TO_END), *(m[0] for m in PER_LAYER)):
            assert isinstance(values[metric], (int, float)), (name, metric)
        shares = sum(values[f"{layer}.host_share"] for layer in HOST_SHARE_LAYERS)
        assert shares == pytest.approx(1.0), name
        assert os.path.getsize(result["spans_file"]) > 0
        assert result["check"]["attempted"] > 0


def test_simulated_metrics_repeat_across_runs_and_hash_seeds(traced_runs, out_dir):
    for name, first in traced_runs.items():
        for hashseed in ("0", "12345"):
            again = run.spawn("timed", name, 1, SECONDS, out_dir, hashseed)
            assert again["content_hash"] == first["content_hash"], name
            assert again["layers"]["sim.events"] == first["layers"]["sim.events"]
            for metric in SIM_METRICS:
                assert again["end_to_end"][metric] == first["end_to_end"][metric], (
                    name, metric, hashseed,
                )


def test_a_different_seed_changes_the_inputs():
    for workload in WORKLOADS.values():
        one = synthesize(workload, 1, SECONDS).content_hash()
        assert synthesize(workload, 1, SECONDS).content_hash() == one
        assert synthesize(workload, 2, SECONDS).content_hash() != one


def _with_instances(workload, **changes):
    return dataclasses.replace(
        workload,
        instances=tuple(
            dataclasses.replace(i, **changes) for i in workload.instances
        ),
    )


BROKEN = {
    "miss_stream": dataclasses.replace(WORKLOADS["miss_stream"], warm=False),
    "shared_hits": _with_instances(WORKLOADS["shared_hits"], locality=0.0),
    "cold_disk": dataclasses.replace(WORKLOADS["cold_disk"], warm=True),
    "rw_coherent": _with_instances(WORKLOADS["rw_coherent"], sync_fraction=0.0),
    "meta_openloop": dataclasses.replace(
        WORKLOADS["meta_openloop"], rate_ops_s=12000.0
    ),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_property_assertion_fires_when_the_workload_is_broken(name, out_dir):
    broken = passes.timed_pass(BROKEN[name], 1, SECONDS, out_dir, setups=1)
    assert broken["properties"], name
    assert all(msg.startswith(name) for msg in broken["properties"])


def test_reference_rejects_a_stale_read_after_sync_write():
    ref = check.Reference(4096)
    ranges = [(0, 4096)]
    _chunks, first = ref.begin_write("/f", ranges, "node1", False, 1.0)
    ref.end_write(first, 2.0)
    chunks, second = ref.begin_write("/f", ranges, "node1", True, 3.0)
    # Before the sync_write completes another node may see either.
    assert ref.allowed("/f", 0, "node0", 3.5, 3.6) == [0, 1, 2]
    ref.end_write(second, 4.0)
    assert ref.allowed("/f", 0, "node0", 5.0, 6.0) == [2]
    stale = ref.payload("/f", 0, 1)
    assert ref.check_read("/f", ranges, "node0", 5.0, 6.0, [stale]) == 1
    assert ref.check_read("/f", ranges, "node0", 5.0, 6.0, chunks) == 0
    # A plain write is only guaranteed visible on the writer's node.
    _chunks, third = ref.begin_write("/f", ranges, "node1", False, 7.0)
    ref.end_write(third, 8.0)
    assert ref.allowed("/f", 0, "node0", 9.0, 9.5) == [2, 3]
    assert ref.allowed("/f", 0, "node1", 9.0, 9.5) == [3]
    assert ref.final("/f", 0) == [3]


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(steady, steady, "lower", 0.08) == "unchanged"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.08) == "worse"
    faster = [v * 0.7 for v in steady]
    assert compare.verdict(steady, faster, "lower", 0.08) == "improved"
    assert compare.verdict(steady, faster, "higher", 0.08) == "worse"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.08) == "unresolved"
    assert compare.verdict(noisy, [5.0, 5.5, 6.0], "lower", 0.08) == "improved"


def _cli(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, check=False,
    )


@pytest.mark.parametrize("trace, table", [("0", END_TO_END), ("1", PER_LAYER)])
def test_command_line_prints_the_contract_object_last(trace, table, out_dir):
    done = _cli(
        run.ROOT, "--workload", "cold_disk", "--seed", "3",
        "--seconds", str(SECONDS), "--trace", trace, "--out", out_dir,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    assert {
        name: m["unit"] for name, m in last["metrics"].items()
    } == {row[0]: row[1] for row in table}


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _cli(str(tmp_path), "--workload", "cold_disk", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
