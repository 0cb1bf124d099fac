"""Mutation scoreboard: does tier-1 kill each mutant here.

Each ``M*.diff`` is a bug the test suite ought to catch, as a unified
diff against the tree.  This script applies each (``git apply``) to a
temporary copy of the repository and runs tier-1 (``pytest -x -q``)
there.  Tier-1 *kills* a mutant when it fails or times out (a hung
run fails CI's job limit); memory is capped, as M2's hang allocates
without bound.  Not collected by pytest or CI:

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


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tier1(tree: pathlib.Path) -> str:
    # COLUMNS: pytest cuts the failure summary to the terminal width, and
    # at 80 a long test id leaves no room for the exception.
    env = dict(os.environ, PYTHONPATH="src", HYPOTHESIS_PROFILE="ci", COLUMNS="240")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, timeout=TIMEOUT_S,
                              preexec_fn=cap_memory, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return f"killed (timeout after {TIMEOUT_S} s)"
    if done.returncode == 0:
        return "survived"
    failed = []
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED", "ERROR")):
            test, _, reason = line.partition(" - ")
            # "<module>.<Exception>: <message>", or "assert <expression>"
            if reason.startswith("assert "):
                reason = "AssertionError"
            error = reason.split(":")[0].rsplit(".", 1)[-1]
            failed.append(f"{test} by {error}" if error else test)
    return f"killed ({(failed or [f'exit {done.returncode}'])[0]})"


def score(diff: pathlib.Path | None) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".*cache", ".hypothesis", "out"))
        if diff is not None:
            subprocess.run(["git", "apply", str(diff)], cwd=tree, check=True)
        return run_tier1(tree)


def main(names: list[str]) -> int:
    diffs = [d for d in sorted(HERE.glob("M*.diff")) if not names or d.stem in names]
    survivors = 0
    # The unmutated copy must pass, or no kill means anything.
    for name, diff in [("control", None)] + [(d.stem, d) for d in diffs]:
        verdict = score(diff)
        print(name, f"tier-1: {verdict}", flush=True)
        survived = verdict == "survived"
        if diff is None and not survived:
            return 2
        survivors += survived and diff is not None
    print(f"{len(diffs) - survivors} of {len(diffs)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
