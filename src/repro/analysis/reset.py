"""A no-op left for the benchmark harness.

Message ids, the one per-run identity the simulator issues, are drawn
from the run's :class:`~repro.sim.Environment`
(:meth:`~repro.sim.Environment.next_msg_id`), so no module-level state
outlives a run and nothing needs resetting between runs.
``bench/passes.py`` still imports and calls :func:`reset_all`; delete
this module together with those calls.
"""


def reset_all() -> None:
    """Do nothing: there is no module-level run state to reset."""
