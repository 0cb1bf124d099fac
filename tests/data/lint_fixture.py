"""Seeded lint fixture: every RPL rule must fire on this file.

Never imported at runtime — :mod:`tests.test_analysis_lint` parses it
to prove the custom lint catches each hazard (and that ``noqa``
suppression works).  Keep the hazards, they are the point.  Lines that
must *not* be flagged carry no code: any finding there fails the test.
"""


def swallows_kill(env):
    """Swallowing GeneratorExit inside a generator breaks kill()."""
    try:
        yield env.timeout(1.0)
    except GeneratorExit:  # RPL005: no re-raise
        pass


def swallows_kill_knowingly(env):
    try:
        yield env.timeout(1.0)
    except BaseException:  # noqa: RPL005 -- proves suppression works
        pass


def cleans_up_and_reraises(env, log):
    try:
        yield env.timeout(1.0)
    except (GeneratorExit, ValueError):
        log.append("killed")
        raise


def plain_function(log):
    try:
        log.append(1)
    except BaseException:
        log.append("no generator, no kill")
