"""Workloads: the micro-benchmark, applications, and the trace IR.

Two ways to drive the simulated cluster:

* **Synthetic generators** — the paper's customizable micro-benchmark
  (Section 4.1; ``d``/``p``/``l``/``s`` knobs) and the application mixes
  of :mod:`repro.workload.apps`.
* **The trace IR** — any run can be *recorded* into a serializable,
  versioned :class:`Trace` (:mod:`repro.workload.record`),
  *transformed* into scenario families
  (:mod:`repro.workload.transform`), *replayed* deterministically
  against any configuration (:mod:`repro.workload.replay`), and
  external traces can be *imported* from JSONL/CSV with validation and
  sharing classification on ingest.
"""

from repro.workload.classify import SharingClassifier, classify_trace
from repro.workload.microbench import MicroBenchmark, MicroBenchParams
from repro.workload.pattern import AccessPattern
from repro.workload.record import TraceRecorder
from repro.workload.replay import (
    TraceReplayer,
    fig4_point_trace_hash,
    record_microbench_trace,
    replay_trace_hash,
)
from repro.workload.runner import InstanceResult, RunOutcome, run_instances
from repro.workload.trace import (
    Trace,
    TraceEvent,
    TraceFormatError,
    validate_trace,
)

__all__ = [
    "AccessPattern",
    "InstanceResult",
    "MicroBenchmark",
    "MicroBenchParams",
    "RunOutcome",
    "SharingClassifier",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "classify_trace",
    "fig4_point_trace_hash",
    "record_microbench_trace",
    "replay_trace_hash",
    "run_instances",
    "validate_trace",
]
