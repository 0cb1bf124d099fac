"""CLI: ``python -m repro.analysis lint [paths...]``.

With no paths, the lint scans the source tree the installed ``repro``
package lives in.  Exits non-zero when any finding survives its
``noqa`` filter, so the command slots directly into CI.
"""

from __future__ import annotations

import sys

from repro.analysis import lint

USAGE = """\
usage: python -m repro.analysis lint [paths...]

subcommands:
  lint    run the sim-aware AST lint (RPL005) over the given
          files/directories (default: the repro source tree)
"""


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(USAGE)
        return 0 if argv else 2
    command, *rest = argv
    if command == "lint":
        return lint.main(rest)
    sys.stderr.write(f"unknown subcommand {command!r}\n\n{USAGE}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
