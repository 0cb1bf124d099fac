"""Custom AST lint for simulation-specific hazards.

Generic linters do not know that this codebase's concurrency is built
from generator processes, so its most dangerous bugs are invisible to
them: calling a *yielding helper* (a generator function such as
``FreeList.acquire`` or ``CacheModule.read``) without ``yield from``
creates a generator object, throws it away, and silently performs
nothing — the simulation keeps running with the operation skipped.
This lint walks the source tree and flags exactly those hazards:

``RPL001``
    A yielding helper called as a bare statement: the returned
    generator is discarded and the helper's body never runs.
``RPL002``
    ``yield helper(...)`` where ``helper`` is a generator function:
    the process yields a raw generator instead of an Event (use
    ``yield from helper(...)`` or wrap it in ``env.process(...)``).
``RPL003``
    Mutable default argument (shared across calls).
``RPL004``
    Module-level mutable state with no reset hook registered via
    :func:`repro.analysis.reset.register_reset` — such state leaks
    between tests and across sweep points.
``RPL005``
    Bare ``except:`` anywhere; or ``except BaseException`` /
    ``except GeneratorExit`` inside a generator function without a
    re-raise — swallowing ``GeneratorExit`` breaks ``Process.kill``.
``RPL006``
    Direct ``heapq`` import outside ``repro.sim``: the event queue is
    a seam (due deques + one heap, DESIGN.md §14), and code that
    heap-manages simulation timestamps itself bypasses the engine's
    ordering and stats.  Schedule through ``Environment`` instead.

Yielding helpers are resolved in three tiers: module-local generator
functions (including names imported from scanned modules),
``self.method(...)`` against the enclosing class, and — for other
attribute calls — a method name is trusted only when *every* scanned
class defining it makes it a generator (ambiguous names are skipped
rather than guessed).

Every rule is local: it looks at one call site, function or module
at a time.  Hazards that span a yield, where a process acts on state
another process changed meanwhile, are left to tests that pin each
such guarantee, and to
:meth:`~repro.cache.manager.BufferManager.check_invariants`, which
tier-1 runs from a step hook.

Suppression: append ``# noqa: RPL00x`` (or a blanket ``# noqa``) to
the flagged line, with a comment saying why.

Run as ``python -m repro.analysis lint [paths...]``.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import typing as _t
from pathlib import Path

#: Calls producing a fresh mutable object when seen in a default or a
#: module-level assignment.
_MUTABLE_CALL_NAMES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "count",
    }
)

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.I)


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


def _is_generator_fn(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function's own body yields (nested defs excluded)."""
    todo: list[ast.AST] = list(node.body)
    while todo:
        current = todo.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(current, (ast.Yield, ast.YieldFrom)):
            return True
        todo.extend(ast.iter_child_nodes(current))
    return False


@dataclasses.dataclass
class _ModuleInfo:
    """Per-module facts gathered by the index pass."""

    path: Path
    tree: ast.Module
    source_lines: list[str]
    #: Module-level generator function names.
    gen_functions: set[str] = dataclasses.field(default_factory=set)
    #: Module-level non-generator function names.
    plain_functions: set[str] = dataclasses.field(default_factory=set)
    #: class name -> {method name -> is_generator}.
    classes: dict[str, dict[str, bool]] = dataclasses.field(
        default_factory=dict
    )
    #: local name -> (source module suffix, original name) for
    #: ``from X import name`` statements.
    imports: dict[str, tuple[str, str]] = dataclasses.field(
        default_factory=dict
    )


class GeneratorIndex:
    """Cross-module registry of yielding helpers."""

    def __init__(self) -> None:
        self.modules: dict[str, _ModuleInfo] = {}
        #: method name -> classes defining it as a generator.
        self.method_gen_owners: dict[str, set[str]] = {}
        #: method name -> classes defining it as a plain callable.
        self.method_plain_owners: dict[str, set[str]] = {}

    def add_module(self, key: str, info: _ModuleInfo) -> None:
        """Index one parsed module's yielding functions and methods."""
        self.modules[key] = info
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.decorator_list:
                    continue  # decorators may change call semantics
                if _is_generator_fn(node):
                    info.gen_functions.add(node.name)
                else:
                    info.plain_functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, bool] = {}
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if item.decorator_list:
                        continue
                    methods[item.name] = _is_generator_fn(item)
                info.classes[node.name] = methods
                for method, is_gen in methods.items():
                    owners = (
                        self.method_gen_owners
                        if is_gen
                        else self.method_plain_owners
                    )
                    owners.setdefault(method, set()).add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    info.imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    # -- resolution ------------------------------------------------------
    def name_is_yielding(self, info: _ModuleInfo, name: str) -> bool:
        """Does the bare name resolve to a generator function?"""
        if name in info.gen_functions:
            return True
        if name in info.plain_functions:
            return False
        imported = info.imports.get(name)
        if imported is None:
            return False
        module_suffix, original = imported
        source = self._module_by_suffix(module_suffix)
        return source is not None and original in source.gen_functions

    def _module_by_suffix(self, dotted: str) -> _ModuleInfo | None:
        key = dotted.replace(".", "/")
        for mod_key, info in self.modules.items():
            if mod_key == key or mod_key.endswith("/" + key):
                return info
        return None

    def method_is_yielding(
        self, info: _ModuleInfo, class_name: str | None, call: ast.Call
    ) -> bool:
        """Does an attribute call resolve to a generator method?"""
        func = call.func
        assert isinstance(func, ast.Attribute)
        method = func.attr
        # self.method(): resolve against the enclosing class only.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and class_name is not None
        ):
            methods = info.classes.get(class_name, {})
            if method in methods:
                return methods[method]
            # Fall through: inherited methods resolve by global name.
        # Other receivers: trust the name only when it is unambiguous
        # across every scanned class.
        gen_owners = self.method_gen_owners.get(method)
        if not gen_owners:
            return False
        if self.method_plain_owners.get(method):
            return False  # ambiguous: some class makes it non-yielding
        return True


def _suppressed(lines: list[str], finding: Finding) -> bool:
    """True when the finding's source line carries a matching noqa."""
    if not 1 <= finding.line <= len(lines):
        return False
    match = _NOQA_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True  # blanket noqa
    wanted = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return finding.code in wanted


def _is_mutable_value(node: ast.AST) -> bool:
    """Does evaluating ``node`` build a fresh mutable container?"""
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _MUTABLE_CALL_NAMES
    return False


def _registered_reset_names(tree: ast.Module) -> set[str]:
    """Names whose reset is registered via ``register_reset``.

    Covers both direct arguments (``register_reset(fn)`` /
    decorator form) and the globals those hook functions rebind.
    """
    def _callable_name(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    hook_fn_names: set[str] = set()
    direct: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _callable_name(node.func) == "register_reset":
                for arg in node.args:
                    for name_node in ast.walk(arg):
                        if isinstance(name_node, ast.Name):
                            direct.add(name_node.id)
                            hook_fn_names.add(name_node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _callable_name(deco) == "register_reset":
                    hook_fn_names.add(node.name)
    # Globals rebound by the registered hook functions.
    rebound: set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in hook_fn_names
        ):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    rebound.update(inner.names)
                elif isinstance(inner, ast.Assign):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            rebound.add(target.id)
    return direct | rebound


class _ModuleLinter(ast.NodeVisitor):
    """Pass 2: walk one module and emit findings."""

    def __init__(self, index: GeneratorIndex, info: _ModuleInfo) -> None:
        self.index = index
        self.info = info
        self.findings: list[Finding] = []
        self._class_stack: list[str] = []
        self._function_stack: list[bool] = []  # is-generator flags

    # -- helpers ---------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=str(self.info.path),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    def _call_is_yielding(self, call: ast.Call) -> str | None:
        """Resolve a call; returns the helper's display name if it is
        a generator function, else None."""
        func = call.func
        if isinstance(func, ast.Name):
            if self.index.name_is_yielding(self.info, func.id):
                return func.id
            return None
        if isinstance(func, ast.Attribute):
            class_name = self._class_stack[-1] if self._class_stack else None
            if self.index.method_is_yielding(self.info, class_name, call):
                return func.attr
        return None

    # -- structure visitors ----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_mutable_defaults(node)
        self._function_stack.append(_is_generator_fn(node))
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- RPL001 / RPL002 -------------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            helper = self._call_is_yielding(value)
            if helper is not None:
                self._emit(
                    node,
                    "RPL001",
                    f"call to yielding helper {helper}() discards the "
                    "generator; the helper's body never runs (use "
                    "'yield from' or env.process(...))",
                )
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if isinstance(node.value, ast.Call):
            helper = self._call_is_yielding(node.value)
            if helper is not None:
                self._emit(
                    node,
                    "RPL002",
                    f"'yield {helper}(...)' yields a raw generator, not "
                    "an Event (use 'yield from' or env.process(...))",
                )
        self.generic_visit(node)

    # -- RPL003 ----------------------------------------------------------
    def _check_mutable_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_value(default):
                self._emit(
                    default,
                    "RPL003",
                    f"mutable default argument in {node.name}() is "
                    "shared across calls",
                )

    # -- RPL005 ----------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                node,
                "RPL005",
                "bare 'except:' catches GeneratorExit and breaks "
                "Process.kill (name the exceptions)",
            )
        elif self._function_stack and self._function_stack[-1]:
            caught = self._caught_names(node.type)
            if caught & {"BaseException", "GeneratorExit"}:
                if not any(
                    isinstance(inner, ast.Raise)
                    for inner in ast.walk(node)
                ):
                    self._emit(
                        node,
                        "RPL005",
                        "generator swallows "
                        f"{'/'.join(sorted(caught))} without re-raising; "
                        "GeneratorExit must propagate for Process.kill",
                    )
        self.generic_visit(node)

    @staticmethod
    def _caught_names(node: ast.expr) -> set[str]:
        names: set[str] = set()
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        for item in nodes:
            if isinstance(item, ast.Name):
                names.add(item.id)
            elif isinstance(item, ast.Attribute):
                names.add(item.attr)
        return names

    # -- RPL006 ----------------------------------------------------------
    def check_heapq_imports(self) -> None:
        """Flag ``heapq`` imports outside the ``repro.sim`` package."""
        posix_path = str(self.info.path).replace("\\", "/")
        if "repro/sim/" in posix_path:
            return
        for node in ast.walk(self.info.tree):
            if isinstance(node, ast.Import):
                if any(alias.name == "heapq" for alias in node.names):
                    self._emit(node, "RPL006", self._HEAPQ_MSG)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq":
                    self._emit(node, "RPL006", self._HEAPQ_MSG)

    _HEAPQ_MSG = (
        "direct heapq use outside repro.sim bypasses the engine's "
        "event-queue seam (ordering, stats); "
        "schedule via Environment instead"
    )

    # -- RPL004 ----------------------------------------------------------
    def check_module_state(self) -> None:
        registered = _registered_reset_names(self.info.tree)
        for node in self.info.tree.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            annotation: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
                annotation = node.annotation
            if value is None or not _is_mutable_value(value):
                continue
            if annotation is not None and "Final" in ast.dump(annotation):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") or name.isupper():
                    continue  # dunder / constant-by-convention
                if name in registered:
                    continue
                self._emit(
                    node,
                    "RPL004",
                    f"module-level mutable state {name!r} has no "
                    "registered test-reset hook (see "
                    "repro.analysis.reset.register_reset)",
                )


def _iter_py_files(paths: _t.Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: _t.Sequence[Path]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; returns findings
    (noqa-suppressed ones already removed), sorted by location."""
    files = _iter_py_files([Path(p) for p in paths])
    index = GeneratorIndex()
    infos: list[tuple[str, _ModuleInfo]] = []
    for file in files:
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise SystemExit(f"{file}: cannot parse: {exc}") from exc
        key = str(file.with_suffix("")).replace("\\", "/")
        info = _ModuleInfo(
            path=file, tree=tree, source_lines=source.splitlines()
        )
        index.add_module(key, info)
        infos.append((key, info))
    findings: list[Finding] = []
    for _key, info in infos:
        linter = _ModuleLinter(index, info)
        linter.visit(info.tree)
        linter.check_module_state()
        linter.check_heapq_imports()
        findings.extend(
            f
            for f in linter.findings
            if not _suppressed(info.source_lines, f)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def main(argv: _t.Sequence[str]) -> int:
    """CLI entry point for ``python -m repro.analysis lint``."""
    targets = [Path(a) for a in argv]
    if not targets:
        # Default: the source tree this installed package lives in.
        package_root = Path(__file__).resolve().parents[2]
        targets = [package_root]
    findings = lint_paths(targets)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("clean")
    return 0
