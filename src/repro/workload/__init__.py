"""Workloads: the micro-benchmark, applications, and the trace IR.

Two ways to drive the simulated cluster:

* **Synthetic generators** — the paper's customizable micro-benchmark
  (Section 4.1; ``d``/``p``/``l``/``s`` knobs) and the application mixes
  of :mod:`repro.workload.apps`.
* **The trace IR** — any run can be *recorded* into a serializable,
  versioned JSONL :class:`Trace` (:mod:`repro.workload.record`) and
  *replayed* deterministically against any configuration
  (:mod:`repro.workload.replay`); a trace file is validated as it is
  loaded.
* **Open-loop generation** — arrival schedules that do not slow down
  with the system (:mod:`repro.workload.openloop`), emitted as trace
  IR.
"""

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
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "fig4_point_trace_hash",
    "record_microbench_trace",
    "replay_trace_hash",
    "run_instances",
    "validate_trace",
]
