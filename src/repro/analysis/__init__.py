"""Correctness substrate: static lint, determinism, test-reset hooks.

The cache module is a concurrent buffer manager — hash table, free
list, dirty list, a flusher and a harvester racing the application
processes — reproduced here with cooperative generator processes.
This package holds the tooling that keeps that concurrency honest:

* :mod:`repro.analysis.lint` — a custom AST lint for sim-specific
  hazards (yielding helpers called without ``yield from``, mutable
  defaults, unregistered module-level state, swallowed
  ``GeneratorExit``).  Run as ``python -m repro.analysis lint``.
* :mod:`repro.analysis.determinism` — schedule trace hashes proving
  same-seed runs identical, serial or through the parallel sweep
  (tier-1 also runs one scenario under several ``PYTHONHASHSEED``
  values: iterating a set into the schedule shows up there).
* :mod:`repro.analysis.reset` — the registry of test-reset hooks for
  module-level mutable state (enforced by lint rule RPL004).

The cache's block-accounting invariant lives beside the structures it
checks, as :meth:`repro.cache.manager.BufferManager.check_invariants`.
"""

from repro.analysis.lint import Finding, lint_paths
from repro.analysis.reset import register_reset, reset_all

__all__ = [
    "Finding",
    "lint_paths",
    "register_reset",
    "reset_all",
]
