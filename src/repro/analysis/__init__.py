"""Correctness tooling: the sim-aware static lint.

:mod:`repro.analysis.lint` flags hazards of generator-based processes
that generic linters cannot see.  Run as ``python -m repro.analysis
lint``.  Determinism checks live with what they run
(:func:`repro.workload.replay.fig4_point_trace_hash`,
:func:`~repro.workload.replay.replay_trace_hash`); the cache's
block-accounting invariant is
:meth:`repro.cache.manager.BufferManager.check_invariants`.
"""

from repro.analysis.lint import Finding, lint_paths

__all__ = ["Finding", "lint_paths"]
