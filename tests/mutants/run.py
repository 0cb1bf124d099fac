"""Mutation scoreboard: which test layer kills each mutant here.

Each ``M*.diff`` is a bug one of the correctness layers ought to catch,
as a unified diff against the tree.  This script applies each (``git
apply``) to a temporary copy of the repository and runs there tier-1
(``pytest -x -q``) and the sanitizer shard (the cache tests under
``REPRO_SANITIZE=1``, as in CI).  A layer *kills* a mutant when it
fails or times out (a hung run fails CI's job limit); memory is capped,
as M2's hang allocates without bound.  Not collected by pytest or CI:

    python tests/mutants/run.py [M1 M3 ...]
"""

import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TIMEOUT_S = 300
MEMORY_CAP = 2 << 30
SANITIZER_SHARD = [f"tests/test_{name}.py" for name in (
    "cache_manager", "cache_module", "cache_threads", "cache_manager_model",
    "sanitize", "sanitize_fuzz", "coherence_race", "iod_directory")]
LAYERS = {"tier-1": ([], False), "sanitizer": (SANITIZER_SHARD, True)}


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_layer(tree: pathlib.Path, paths: list[str], sanitize: bool) -> str:
    env = dict(os.environ, PYTHONPATH="src", HYPOTHESIS_PROFILE="ci")
    env.pop("REPRO_SANITIZE", None)
    if sanitize:
        env["REPRO_SANITIZE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(cmd + paths, cwd=tree, env=env, timeout=TIMEOUT_S,
                              preexec_fn=cap_memory, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return f"killed (timeout after {TIMEOUT_S} s)"
    if done.returncode == 0:
        return "survived"
    lines = done.stdout.splitlines()
    failed = [ln.split(" - ")[0] for ln in lines if ln.startswith(("FAILED", "ERROR"))]
    return f"killed ({(failed or [f'exit {done.returncode}'])[0]})"


def score(diff: pathlib.Path | None) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".*cache", ".hypothesis", "out"))
        if diff is not None:
            subprocess.run(["git", "apply", str(diff)], cwd=tree, check=True)
        return {layer: run_layer(tree, *args) for layer, args in LAYERS.items()}


def main(names: list[str]) -> int:
    diffs = [d for d in sorted(HERE.glob("M*.diff")) if not names or d.stem in names]
    survivors = 0
    # The unmutated copy must pass every layer, or no kill means anything.
    for name, diff in [("control", None)] + [(d.stem, d) for d in diffs]:
        verdicts = score(diff)
        print(name, "  ".join(f"{k}: {v}" for k, v in verdicts.items()), flush=True)
        survived = all(v == "survived" for v in verdicts.values())
        if diff is None and not survived:
            return 2
        survivors += survived and diff is not None
    print(f"{len(diffs) - survivors} of {len(diffs)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
