"""The repo benchmark: five long-run workloads measured from outside.

Entry point is ``python3 bench/run.py`` (see ``bench/README.md``); the
modules import each other as ``bench.<module>`` so that
``bench/trace.py`` never shadows the standard library's ``trace``.
"""
