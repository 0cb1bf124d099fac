"""Seeded lint fixture: every RPL rule must fire on this file.

Never imported at runtime — :mod:`tests.test_analysis_lint` parses it
to prove the custom lint catches each hazard class (and that ``noqa``
suppression works).  Keep the hazards, they are the point.
"""

import heapq  # RPL006: timestamp heap outside repro.sim

shared_registry = {}  # RPL004: mutable module state, no reset hook

suppressed_registry = []  # noqa: RPL004 -- proves suppression works


def helper_steps(env):
    """A yielding helper (generator function)."""
    yield env.timeout(1.0)
    return 42


def mutable_default(values=[]):  # RPL003: shared across calls
    """Classic mutable-default hazard."""
    values.append(1)
    return values


def run(env):
    """Misuses of the yielding helper plus a bare except."""
    helper_steps(env)  # RPL001: generator built and discarded
    yield helper_steps(env)  # RPL002: yields a raw generator
    try:
        yield env.timeout(1.0)
    except:  # RPL005: bare except swallows GeneratorExit
        pass


def swallows_kill(env):
    """Swallowing GeneratorExit inside a generator breaks kill()."""
    try:
        yield env.timeout(1.0)
    except GeneratorExit:  # RPL005: no re-raise
        pass
