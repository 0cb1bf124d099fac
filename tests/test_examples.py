"""Smoke tests: every example script must run to completion.

(The scheduler example sweeps a 6-node grid and is exercised with a
reduced grid here rather than its full main().)
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "warm read speedup" in out
    assert "hit-ratio" in out


def test_readme_quick_start_returns():
    """README's first Python block runs to its end: it must stop at the
    app's process, since the flusher's periodic round keeps the queue
    alive forever once caching is on."""
    block = re.search(
        r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S
    ).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", block],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "cache.hits" in done.stdout


def test_analysis_pipeline_runs(capsys):
    _load("analysis_pipeline").main()
    out = capsys.readouterr().out
    assert "speedup" in out
    # caching must actually have helped
    speedup = float(out.split("speedup: ")[1].split("x")[0])
    assert speedup > 1.0


def test_coherent_checkpointing_runs(capsys):
    _load("coherent_checkpointing").main()
    out = capsys.readouterr().out
    assert "stale checkpoint reads: 0" in out  # the coherent run


def test_trace_replay_runs(capsys):
    _load("trace_replay").main()
    out = capsys.readouterr().out
    assert "replaying" in out
    assert "no caching" in out


def test_collective_io_single_cell():
    """One measurement of the collective example (full main is slow)."""
    module = _load("collective_io")
    t_coll = module.measure(collective=True, caching=False)
    t_indep = module.measure(collective=False, caching=False)
    assert t_coll < t_indep


def test_cache_sizing_runs(capsys):
    _load("cache_sizing").main()
    out = capsys.readouterr().out
    assert "knee of the curve" in out
    assert "predicted hit ratio" in out


def test_scheduler_colocation_single_cell():
    """One cell of the scheduler example's grid (full main is slow)."""
    module = _load("scheduler_colocation")
    t_co = module.placement_time(1.0, 0.75, colocate=True)
    t_sp = module.placement_time(1.0, 0.75, colocate=False)
    assert t_co < t_sp  # l=1, high sharing: co-location wins


def test_openloop_scaling_single_cell():
    """One cell of the knee sweep (full main sweeps p=256 and is slow)."""
    module = _load("openloop_scaling")
    one = module.measure(16, 1, 16000.0, duration_s=0.1)
    four = module.measure(16, 4, 16000.0, duration_s=0.1)
    assert four["completed_ops_per_s"] > one["completed_ops_per_s"]
