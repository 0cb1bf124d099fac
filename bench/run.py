"""Run the repo benchmark: ``python3 bench/run.py [options]``.

For each workload the runner launches the passes of ``bench/passes.py``
one after another, each in a fresh ``python`` child (``REPRO_*``
scrubbed, ``PYTHONHASHSEED`` pinned), checks the outputs, and prints

* one ``workload metric value unit`` line per metric, and
* one JSON object ``{"correct", "attempted", "failed", "metrics"}`` as
  the workload's last line: the end-to-end metrics with ``--trace 0``,
  the per-layer metrics with ``--trace 1``.

The full result document (provenance, every metric of every run, span
totals) is written to ``<out>/result.json``; ``--repeat N`` puts N runs
in it, which is what ``bench/compare.py`` reads.  Exit status is
non-zero if any op failed, any output was wrong, or any workload
drifted from its defining property.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import typing as _t

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

PASSES = ("timed", "check", "traced")


def _parse(argv: _t.Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length the op counts are scaled to (default: "
        "run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also run the traced pass and report the per-layer metrics",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument(
        "--out", default=os.path.join(BENCH_DIR, "out"),
        help="directory for result.json and span files",
    )
    parser.add_argument("--child", choices=PASSES, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _spec() -> dict[str, _t.Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


# -- child side ---------------------------------------------------------------
def _child(args: argparse.Namespace) -> int:
    """Run one pass in this process; print its result as one JSON line."""
    from bench import passes
    from bench.workloads import WORKLOADS

    run_pass = getattr(passes, f"{args.child}_pass")
    result = run_pass(WORKLOADS[args.workload], args.seed, args.seconds, args.out)
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------
def child_env(hashseed: str = "0") -> dict[str, str]:
    """The children's environment: no ``REPRO_*`` seam overrides, a
    pinned string-hash seed, and the program importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC
    return env


def spawn(
    pass_name: str,
    workload: str,
    seed: int,
    seconds: float,
    out: str,
    hashseed: str = "0",
) -> dict[str, _t.Any]:
    """One pass in a fresh interpreter; returns its result dict."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__), "--child", pass_name,
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--out", out,
        ],
        env=child_env(hashseed),
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{pass_name} pass of {workload} exited with {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, out: str
) -> dict[str, _t.Any]:
    """All passes of one workload, combined and judged."""
    from bench.passes import schedule_mismatches

    timed = spawn("timed", name, seed, seconds, out)
    checked = spawn("check", name, seed, seconds, out)
    problems = [
        *timed["errors"], *timed["identities"], *timed["properties"],
        *checked["violations"],
    ]
    failed = timed["failed"] + checked["failed"]
    # A broken identity or property is a failure even when every op
    # completed: the run measured something other than it claims.
    failed += len(timed["identities"]) + len(timed["properties"])
    layers = dict(timed["layers"])
    result: dict[str, _t.Any] = {
        "seed": seed,
        "seconds": seconds,
        "content_hash": timed["content_hash"],
        "seams": timed["seams"],
        "samples": dict(timed["samples"]),
        "check": checked,
    }
    if traced:
        tr = spawn("traced", name, seed, seconds, out)
        mismatches = schedule_mismatches(timed, tr)
        problems += mismatches
        failed += tr["failed"] + len(mismatches)
        layers.update(tr["layers"])
        layers["trace.overhead_ratio"] = tr["host_s"] / timed["end_to_end"]["host_s"]
        result["samples"].update(tr["samples"])
        result["spans_file"] = tr["spans_file"]
        result["span_totals"] = tr["span_totals"]
        if "knee" in tr:
            result["knee"] = tr["knee"]
    attempted = timed["attempted"] + checked["attempted"]
    result.update(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "ops_failed_frac": failed / attempted,
            "problems": problems,
            "end_to_end": timed["end_to_end"],
            "layers": layers,
        }
    )
    return result


def provenance() -> dict[str, _t.Any]:
    """Which commit, on which host, produced the numbers."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _report(name: str, result: dict[str, _t.Any], traced: bool) -> None:
    from bench.metrics import END_TO_END, PER_LAYER, UNITS

    e2e = [n for n, _u, _b, _bound in END_TO_END]
    layer = [n for n, _u, _b, p in PER_LAYER if traced or p == "timed"]
    values = {**result["end_to_end"], **result["layers"]}
    for metric in (*e2e, *layer):
        print(f"{name} {metric} {values[metric]!r} {UNITS[metric]}")
    print(f"{name} ops_failed_frac {result['ops_failed_frac']!r} fraction")
    samples = result["samples"]
    print(
        f"{name} # p99 over {samples['sim_lat']} ops, "
        f"{samples['sim_lat_beyond_p99']} beyond it; trace "
        f"{result['content_hash']}",
    )
    if traced:
        traced_host_s = values["host_s"] * values["trace.overhead_ratio"]
        print(
            f"{name} # cache.select_victims_host_s is "
            f"{values['cache.select_victims_host_s'] / traced_host_s:.1%} of the "
            f"traced pass's {traced_host_s:.2f} s host time"
        )
    for problem in result["problems"]:
        print(f"{name} ! {problem}", file=sys.stderr)
    contract = layer if traced else e2e
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m: {"value": values[m], "unit": UNITS[m]} for m in contract
                },
            }
        ),
        flush=True,
    )


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: the program is not at {SRC}", file=sys.stderr)
        return 2
    # Import as ``bench.<module>`` from the repo root, never from this
    # directory: ``bench/trace.py`` must not shadow the stdlib ``trace``.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != BENCH_DIR]
    sys.path[:0] = [ROOT, SRC]
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return _child(args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"bench: unknown workload {args.workload!r}; have {names}",
                  file=sys.stderr)
            return 2
        names = [args.workload]
    document: dict[str, _t.Any] = {
        "provenance": provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "runs": [],
    }
    ok = True
    for _ in range(args.repeat):
        run: dict[str, _t.Any] = {}
        for name in names:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.out
            )
            _report(name, result, bool(args.trace))
            ok = ok and result["correct"]
            run[name] = result
        document["runs"].append(run)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "result.json"), "w") as fp:
        json.dump(document, fp, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
