"""Correctness substrate: static lint, runtime sanitizer, determinism.

The cache module is a concurrent buffer manager — hash table, free
list, dirty list, a flusher and a harvester racing the application
processes — reproduced here with cooperative generator processes.
This package holds the tooling that keeps that concurrency honest:

* :mod:`repro.analysis.lint` — a custom AST lint for sim-specific
  hazards (yielding helpers called without ``yield from``, mutable
  defaults, unregistered module-level state, swallowed
  ``GeneratorExit``).  Run as ``python -m repro.analysis lint``.
* :mod:`repro.analysis.sanitize` — an opt-in (``REPRO_SANITIZE=1``)
  runtime checker validating the block-accounting invariant of every
  :class:`~repro.cache.manager.BufferManager` at scheduler-step
  granularity, plus :func:`~repro.analysis.sanitize.atomic_section`,
  a yield-interleaving race detector for declared critical sections.
* :mod:`repro.analysis.determinism` — schedule trace hashes proving
  same-seed runs identical, serial or through the parallel sweep
  (tier-1 also runs one scenario under several ``PYTHONHASHSEED``
  values: iterating a set into the schedule shows up there).
* :mod:`repro.analysis.reset` — the registry of test-reset hooks for
  module-level mutable state (enforced by lint rule RPL004).
"""

from repro.analysis.lint import Finding, lint_paths
from repro.analysis.reset import register_reset, reset_all
from repro.analysis.sanitize import (
    CacheSanitizer,
    InvariantViolation,
    RaceDiagnostic,
    atomic_section,
)

__all__ = [
    "CacheSanitizer",
    "Finding",
    "InvariantViolation",
    "RaceDiagnostic",
    "atomic_section",
    "lint_paths",
    "register_reset",
    "reset_all",
]
