"""Determinism regression: same-seed runs are bit-identical.

The schedule trace hash folds every processed event (sequence number,
timestamp, event identity) into a BLAKE2b digest, so two runs agree on
the hash iff they executed the same schedule.  This must hold in one
process, across repeated runs, and through the parallel sweep's worker
processes — otherwise parallel figure sweeps would not be trustworthy
reproductions of serial ones.  Nor may it depend on the string hash
seed, which the interpreter draws per process (``PYTHONHASHSEED``).
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.experiments import parallel
from repro.sim import Environment
from repro.workload.replay import fig4_point_trace_hash, replay_trace_hash
from tests.test_iod_directory import PINNED_SCENARIO
from tests.test_mgr_shards import make_trace


def test_engine_trace_hash_is_deterministic():
    def run():
        def ticker(env):
            for _ in range(10):
                yield env.timeout(0.5)

        env = Environment()
        env.enable_trace_hash()
        env.run(until=env.process(ticker(env), name="ticker"))
        return env.trace_hash()

    assert run() == run()


def test_quick_fig4_point_same_seed_same_hash():
    assert fig4_point_trace_hash(seed=4242) == fig4_point_trace_hash(
        seed=4242
    )


def test_different_seed_changes_the_schedule():
    assert fig4_point_trace_hash(seed=1) != fig4_point_trace_hash(seed=2)


def test_parallel_sweep_reproduces_serial_schedule(monkeypatch):
    serial = fig4_point_trace_hash(seed=4242)
    # force a real process pool: workers must not just be the serial
    # in-process fallback
    monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
    point = (4096, "read", 2, 8, 4242)
    hashes = parallel.sweep(
        [point, point], fig4_point_trace_hash, max_workers=2
    )
    assert hashes == [serial, serial]


#: A 4-process replay point on 4 x 4 nodes: message ids reach process
#: names, so its schedule shows whether they belong to the run.
REPLAY_POINT = (make_trace().dumps(), 4, 4)


def test_replay_hash_repeats_in_one_process():
    """Nothing a run issues outlives it: the same replay, twice in one
    process with nothing reset between, has one schedule."""
    assert replay_trace_hash(*REPLAY_POINT) == replay_trace_hash(*REPLAY_POINT)


def test_parallel_replay_sweep_matches_serial_at_every_point(monkeypatch):
    """Two workers, two points each: a worker's second point must not
    see what its first one issued."""
    serial = replay_trace_hash(*REPLAY_POINT)
    monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
    hashes = parallel.sweep([REPLAY_POINT] * 4, replay_trace_hash, max_workers=2)
    assert hashes == [serial] * 4


#: Prints ``_coherent_scenario()`` as one JSON line.
_COHERENT_SCENARIO = (
    "import json\n"
    "from tests.test_iod_directory import _coherent_scenario\n"
    "print(json.dumps(_coherent_scenario()))\n"
)


def test_coherent_scenario_is_independent_of_the_hash_seed():
    """The iod's invalidation fan-out once iterated a raw set of node
    names, so its packet order, and every event after it, followed the
    string hash seed.  An in-process test sees only the seed it runs
    under, which may happen to match sorted order.  So the scenario runs
    here under four fixed seeds, concurrently, and each must reproduce
    the pinned schedule."""
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [str(root), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    runs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", _COHERENT_SCENARIO],
            cwd=root,
            env=dict(env, PYTHONHASHSEED=str(seed)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in range(4)
    }
    observed = {}
    try:
        for seed, run in runs.items():
            out, _ = run.communicate(timeout=300)
            assert run.returncode == 0, f"PYTHONHASHSEED={seed} crashed"
            observed[seed] = json.loads(out.splitlines()[-1])
    finally:
        for run in runs.values():
            run.kill()
    assert observed == {seed: PINNED_SCENARIO for seed in runs}
