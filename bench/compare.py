"""Compare two result sets: ``python3 bench/compare.py A.json B.json``.

A and B are ``result.json`` documents written by ``bench/run.py
--repeat N`` (A the parent commit, B the change; or two sets of the
same commit for the repeatability check).  For every (workload,
end-to-end metric) row this prints each side's median and quartiles and
a verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` a side's own run-to-run spread (quartile distance over
  median) is wider than the bound, so a change of that size cannot be
  told from noise - unless every run of B beats every run of A;
* ``improved``   B's median is better by more than A's own spread, or
  every run of B beats every run of A;
* ``unchanged``  otherwise.

Simulated-clock metrics repeat exactly on one commit, so for them any
difference at all is a model change and is flagged ``exact`` / ``moved``
in the last column.  Exit status is 1 if any row is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import typing as _t

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def quartiles(values: _t.Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: _t.Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(
    a: _t.Sequence[float], b: _t.Sequence[float], better: str, bound: float
) -> str:
    """Judge B against A for one (workload, metric) row."""
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "worse"
    if all_better or -change > spread(a):
        return "improved"
    return "unchanged"


def _values(document: dict, workload: str, metric: str) -> list[float]:
    return [
        run[workload]["end_to_end"][metric]
        for run in document["runs"]
        if workload in run
    ]


def _cell(values: _t.Sequence[float]) -> str:
    return "/".join(f"{q:.6g}" for q in quartiles(values))


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Table rows and whether every row is acceptable."""
    rows = [
        f"{'workload':<14} {'metric':<15} {'A q1/med/q3':<34} "
        f"{'B q1/med/q3':<34} verdict"
    ]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = _values(a, workload, name), _values(b, workload, name)
            if not va or not vb:
                continue
            result = verdict(va, vb, metric["better"], metric["bound"])
            ok = ok and result not in ("worse", "unresolved")
            note = ""
            if name.startswith("sim_"):  # simulated clock: repeats exactly
                same = set(va) == set(vb) and len(set(va)) == 1
                note = " exact" if same else " moved"
            rows.append(
                f"{workload:<14} {name:<15} {_cell(va):<34} {_cell(vb):<34} "
                f"{result}{note}"
            )
    return rows, ok


def main(argv: _t.Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as fp:
            documents.append(json.load(fp))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    rows, ok = compare(*documents, spec)
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
