"""Custom AST lint for one simulation hazard generic linters miss.

``RPL005``
    ``except BaseException`` / ``except GeneratorExit`` inside a
    generator function with no ``raise`` in the handler.
    :meth:`repro.sim.Process.kill` closes the process's generator, which
    raises ``GeneratorExit`` at its yield; a handler that swallows it
    lets the generator run on — into a half-cleaned state, a crash out
    of ``kill()``, or a ``RuntimeError`` at its next yield — and only
    a test that kills that process at that yield would notice.

The other hazards are left to tier-1, which killed a mutant of each
(DESIGN.md appendix A.9): a yielding helper called without ``yield
from`` skips work that pinned timings and schedule hashes see, a raw
generator yielded to the engine fails its process, and a private
``heapq`` schedule moves pinned hashes.  Bare ``except:`` and mutable
defaults are ruff's ``E722`` and ``B006``.

Suppression: append ``# noqa: RPL005`` (or a blanket ``# noqa``) to
the flagged line, with a comment saying why.

Run as ``python -m repro.analysis lint [paths...]``.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import typing as _t
from pathlib import Path

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.I)

#: Handlers of these catch the ``GeneratorExit`` of a kill.
_KILL_CATCHERS = frozenset({"BaseException", "GeneratorExit"})


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint diagnostic."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The one-line report format."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _own_nodes(node: ast.AST) -> _t.Iterator[ast.AST]:
    """Every node below ``node`` outside nested functions and lambdas."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        current = todo.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield current
        todo.extend(ast.iter_child_nodes(current))


def _caught_names(node: ast.expr) -> set[str]:
    names: set[str] = set()
    for item in node.elts if isinstance(node, ast.Tuple) else [node]:
        if isinstance(item, ast.Name):
            names.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return names


def _lint_tree(path: Path, tree: ast.Module) -> _t.Iterator[Finding]:
    """RPL005 findings of one parsed module."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(func))
        if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own):
            continue
        for handler in own:
            if (
                isinstance(handler, ast.ExceptHandler)
                and handler.type is not None
                and _caught_names(handler.type) & _KILL_CATCHERS
                and not any(isinstance(n, ast.Raise) for n in ast.walk(handler))
            ):
                caught = "/".join(sorted(_caught_names(handler.type)))
                yield Finding(
                    path=str(path),
                    line=handler.lineno,
                    col=handler.col_offset,
                    code="RPL005",
                    message=f"generator swallows {caught} without "
                    "re-raising; GeneratorExit must propagate for "
                    "Process.kill",
                )


def _suppressed(lines: list[str], finding: Finding) -> bool:
    """True when the finding's source line carries a matching noqa."""
    match = _NOQA_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True  # blanket noqa
    wanted = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return finding.code in wanted


def lint_paths(paths: _t.Sequence[Path]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; returns findings
    (noqa-suppressed ones already removed), sorted by location."""
    files: list[Path] = []
    for path in map(Path, paths):
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise SystemExit(f"{file}: cannot parse: {exc}") from exc
        lines = source.splitlines()
        findings.extend(
            f for f in _lint_tree(file, tree) if not _suppressed(lines, f)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def main(argv: _t.Sequence[str]) -> int:
    """CLI entry point for ``python -m repro.analysis lint``."""
    targets = [Path(a) for a in argv]
    if not targets:
        # Default: the source tree this installed package lives in.
        targets = [Path(__file__).resolve().parents[2]]
    findings = lint_paths(targets)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("clean")
    return 0
