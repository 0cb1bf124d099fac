"""Interprocedural may-yield race analysis and determinism dataflow.

The concurrency model of this codebase is cooperative: every process
is a generator and the *only* context-switch points are ``yield``
expressions.  A plain function body is therefore atomic, and a
read-modify-write of shared state is safe exactly when no may-yield
call separates the read from the write.  The runtime sanitizer
(``repro.analysis.sanitize``) checks this dynamically on the paths a
test happens to execute; this module proves it statically over the
whole program:

1. **Project index** — every module under the scanned roots is parsed
   and every function/method becomes a node in a project-wide call
   graph.  Calls are resolved like the lint's generator index
   (module-local names, ``from X import`` chains, ``self.method()``
   against the enclosing class) plus, for other attribute calls, the
   union of every scanned class defining that method name.
2. **May-yield fixed point** — a function *may yield* when its own
   body contains a ``yield``, or when it ``yield from``s a callee that
   may yield (unresolvable ``yield from`` targets are conservatively
   may-yield).  Classification is propagated to a fixed point over
   the call graph, so indirection of any depth is seen.
3. **Shared-state effects** — classes declare their cross-process
   structures with :func:`repro.analysis.shared.shared_state`; the
   analyzer tracks reads and writes of those attributes (method calls
   on them classify via ``MUTATING_METHODS``) and propagates each
   function's effect sets to its callers, again to a fixed point.
4. **Rules** —

   ``RPL100``
       A read of shared state, then a may-yield point, then a write
       of the same structure, with no single ``atomic_section``
       covering both endpoints: the decision made at the read can be
       stale by the time the write lands.
   ``RPL101``
       A may-yield point *inside* an ``atomic_section`` body: the
       section's atomicity claim is a lie — the runtime sanitizer
       would flag any mutation that slips in, but the static shape is
       wrong regardless of what the suite executes.
   ``RPL110``
       Iteration over an unordered collection (``set`` literals and
       comprehensions, ``set()``/``frozenset()`` calls, set-typed
       instance attributes, dict-of-set lookups) flowing into
       scheduling, message emission, or ordered capture: the
       simulation's event order then depends on the process hash
       seed, which breaks run-to-run reproducibility.  Wrapping the
       iterable in ``sorted(...)`` both fixes and suppresses it.

Suppression: ``# noqa: RPL1xx`` on the flagged line, or an entry in
the committed baseline file (``analysis_baseline.txt`` at the repo
root).  Baseline entries are line-number-free fingerprints
(``code|path|qualname|detail``) so they survive unrelated edits.

Known limitations (see DESIGN.md §15): dynamic dispatch through
``getattr``/handler tables is invisible; lambdas and nested ``def``s
are not inlined; effects of ``@property`` bodies do not propagate;
attribute matching is by name, not by points-to analysis.

Run as ``python -m repro.analysis flow [paths...]``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import typing as _t
from pathlib import Path

from repro.analysis.lint import (
    Finding,
    _is_generator_fn,
    _iter_py_files,
    _suppressed,
)
from repro.analysis.shared import MUTATING_METHODS

#: Attribute calls that hand a generator to the scheduler instead of
#: driving it inline; generator arguments of these calls run in a
#: *separate* process, so their effects do not belong to this one.
_SPAWN_METHODS = frozenset({"process", "defer", "spawn"})

#: Method calls inside an unordered-iteration loop that make the
#: iteration order observable: scheduling, message emission, ordered
#: capture.
_SINK_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "call",
        "emit",
        "extend",
        "insert",
        "process",
        "push",
        "put",
        "schedule",
        "send",
        "setdefault",
        "spawn",
        "submit",
        "succeed",
    }
)

#: Set-algebra methods whose result is as unordered as their receiver.
_SET_COMBINATORS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Builtin callables a bare-name call may legitimately hit; resolved
#: to an empty candidate set (no effects on shared structures).
_BUILTIN_NAMES = frozenset(
    name for name in dir(__import__("builtins")) if not name.startswith("_")
)


@dataclasses.dataclass(frozen=True)
class FlowFinding(Finding):
    """A flow-analysis diagnostic; extends the lint finding with a
    stable identity for baselining."""

    qualname: str = ""
    detail: str = ""

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file."""
        return "|".join(
            (self.code, _fingerprint_path(self.path), self.qualname, self.detail)
        )


@dataclasses.dataclass(frozen=True)
class AtomicSite:
    """One static ``with atomic_section(...)`` occurrence."""

    path: str
    line: int
    qualname: str
    label: str


def _fingerprint_path(path: str) -> str:
    """Normalise a finding path so fingerprints match regardless of
    whether the analyzer was invoked with absolute or relative paths."""
    posix = path.replace("\\", "/")
    for marker in ("/src/", "/tests/"):
        idx = posix.rfind(marker)
        if idx >= 0:
            return posix[idx + 1 :]
    if posix.startswith(("src/", "tests/")):
        return posix
    return posix.rsplit("/", 1)[-1]


# ---------------------------------------------------------------------------
# Pass 1: the project index
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _FunctionDecl:
    """One function or method node in the call graph."""

    module: "_ModuleDecl"
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_generator: bool
    #: Linear event stream (built in pass 2).
    events: list[tuple] = dataclasses.field(default_factory=list)
    #: Fixed-point results.
    may_yield: bool = False
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def key(self) -> str:
        return f"{self.module.key}::{self.qualname}"


@dataclasses.dataclass
class _ModuleDecl:
    """Per-module facts gathered by the index pass."""

    path: Path
    key: str
    tree: ast.Module
    source_lines: list[str]
    functions: dict[str, _FunctionDecl] = dataclasses.field(default_factory=dict)
    #: class name -> {method name -> decl}.
    classes: dict[str, dict[str, _FunctionDecl]] = dataclasses.field(
        default_factory=dict
    )
    #: class name -> shared-state attribute names from @shared_state.
    shared_attrs: dict[str, frozenset[str]] = dataclasses.field(
        default_factory=dict
    )
    #: class name -> set-typed instance attribute names.
    unordered_attrs: dict[str, frozenset[str]] = dataclasses.field(
        default_factory=dict
    )
    #: class name -> dict-of-set instance attribute names.
    dict_of_set_attrs: dict[str, frozenset[str]] = dataclasses.field(
        default_factory=dict
    )
    #: local name -> (module suffix, original name) for from-imports.
    imports: dict[str, tuple[str, str]] = dataclasses.field(default_factory=dict)
    #: alias -> dotted module for plain ``import X [as Y]``.
    import_modules: dict[str, str] = dataclasses.field(default_factory=dict)
    #: class name -> base class names (for super() resolution).
    class_bases: dict[str, tuple[str, ...]] = dataclasses.field(
        default_factory=dict
    )


def _shared_decl_from_decorators(node: ast.ClassDef) -> frozenset[str]:
    """Read ``@shared_state("a", "b")`` string literals off the AST."""
    attrs: set[str] = set()
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        func = deco.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "shared_state":
            continue
        for arg in deco.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                attrs.add(arg.value)
    return frozenset(attrs)


def _annotation_kind(annotation: ast.expr) -> str | None:
    """Classify an annotation as ``"set"``, ``"dict_of_set"`` or None."""
    try:
        text = ast.unparse(annotation)
    except Exception:
        return None
    if text.startswith(("set[", "frozenset[", "Set[")) or text in (
        "set",
        "frozenset",
    ):
        return "set"
    if text.startswith(("dict[", "Dict[")) and (
        "set[" in text or "frozenset[" in text
    ):
        return "dict_of_set"
    return None


def _collection_attrs(
    node: ast.ClassDef,
) -> tuple[frozenset[str], frozenset[str]]:
    """Set-typed and dict-of-set instance attributes of a class,
    inferred from ``__init__`` assignments and annotations."""
    unordered: set[str] = set()
    dict_of_set: set[str] = set()

    def classify(attr: str, value: ast.expr | None, ann: ast.expr | None) -> None:
        if ann is not None:
            kind = _annotation_kind(ann)
            if kind == "set":
                unordered.add(attr)
                return
            if kind == "dict_of_set":
                dict_of_set.add(attr)
                return
        if value is None:
            return
        if isinstance(value, (ast.Set, ast.SetComp)):
            unordered.add(attr)
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in ("set", "frozenset"):
                unordered.add(attr)

    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            classify(item.target.id, item.value, item.annotation)
        if not (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__init__"
        ):
            continue
        for stmt in ast.walk(item):
            target: ast.expr | None = None
            value: ast.expr | None = None
            ann: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, ann = stmt.target, stmt.value, stmt.annotation
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                classify(target.attr, value, ann)
    return frozenset(unordered), frozenset(dict_of_set)


class _ProjectIndex:
    """Cross-module registry of functions, methods and declarations."""

    def __init__(self) -> None:
        self.modules: dict[str, _ModuleDecl] = {}
        #: method name -> every decl of that name across scanned classes.
        self.method_owners: dict[str, list[_FunctionDecl]] = {}
        #: union of every declared shared-state attribute name.
        self.shared_names: frozenset[str] = frozenset()
        #: union of every set-typed attribute name.
        self.unordered_names: frozenset[str] = frozenset()
        #: union of every dict-of-set attribute name.
        self.dict_of_set_names: frozenset[str] = frozenset()

    def add_module(self, module: _ModuleDecl) -> None:
        self.modules[module.key] = module
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decl = _FunctionDecl(
                    module=module,
                    cls=None,
                    name=node.name,
                    node=node,
                    is_generator=_is_generator_fn(node),
                )
                module.functions[node.name] = decl
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, _FunctionDecl] = {}
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    decl = _FunctionDecl(
                        module=module,
                        cls=node.name,
                        name=item.name,
                        node=item,
                        is_generator=_is_generator_fn(item),
                    )
                    methods[item.name] = decl
                    self.method_owners.setdefault(item.name, []).append(decl)
                module.classes[node.name] = methods
                module.class_bases[node.name] = tuple(
                    base.id
                    for base in node.bases
                    if isinstance(base, ast.Name)
                )
                shared = _shared_decl_from_decorators(node)
                if shared:
                    module.shared_attrs[node.name] = shared
                unordered, dict_of_set = _collection_attrs(node)
                if unordered:
                    module.unordered_attrs[node.name] = unordered
                if dict_of_set:
                    module.dict_of_set_attrs[node.name] = dict_of_set
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    module.import_modules[
                        alias.asname or alias.name.split(".")[0]
                    ] = alias.name

    def finalise(self) -> None:
        shared: set[str] = set()
        unordered: set[str] = set()
        dict_of_set: set[str] = set()
        for module in self.modules.values():
            for attrs in module.shared_attrs.values():
                shared |= attrs
            for attrs in module.unordered_attrs.values():
                unordered |= attrs
            for attrs in module.dict_of_set_attrs.values():
                dict_of_set |= attrs
        self.shared_names = frozenset(shared)
        self.unordered_names = frozenset(unordered)
        self.dict_of_set_names = frozenset(dict_of_set)

    def module_by_suffix(self, dotted: str) -> _ModuleDecl | None:
        key = dotted.replace(".", "/")
        for mod_key in sorted(self.modules):
            if mod_key == key or mod_key.endswith("/" + key):
                return self.modules[mod_key]
        return None

    def all_functions(self) -> list[_FunctionDecl]:
        decls: list[_FunctionDecl] = []
        for key in sorted(self.modules):
            module = self.modules[key]
            decls.extend(module.functions.values())
            for methods in module.classes.values():
                decls.extend(methods.values())
        return decls


# ---------------------------------------------------------------------------
# Pass 2: per-function linear event streams
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _CallSite:
    """A resolved (or unresolvable) call occurrence."""

    display: str
    #: None = unresolved (conservative); tuple may be empty.
    candidates: tuple[_FunctionDecl, ...] | None
    driven: bool  # True when the call is driven by ``yield from``

    def gen_candidates(self) -> tuple[_FunctionDecl, ...]:
        return tuple(c for c in (self.candidates or ()) if c.is_generator)

    def plain_candidates(self) -> tuple[_FunctionDecl, ...]:
        return tuple(
            c for c in (self.candidates or ()) if not c.is_generator
        )

    def effect_candidates(self) -> tuple[_FunctionDecl, ...]:
        """Driven calls run generator bodies; plain calls run plain
        bodies (a plain call to a generator only *creates* it)."""
        return self.gen_candidates() if self.driven else self.plain_candidates()

    def may_yield(self) -> bool:
        if not self.driven:
            return False
        if self.candidates is None:
            return True
        return any(c.may_yield for c in self.gen_candidates())


class _EventBuilder(ast.NodeVisitor):
    """Build one function's linear event stream.

    Events (tuples, first element is the tag):

    - ``("read"|"write", struct, line)`` — shared-structure access
    - ``("yield", line, desc)`` — an intrinsic may-yield point
    - ``("call", _CallSite, line)`` — a call whose effects expand later
    - ``("atomic_enter", with_id, line, label)`` / ``("atomic_exit", with_id)``

    The stream linearises control flow (branches concatenate, loop
    bodies appear once); this over-approximates "a yield may occur
    between" which is the sound direction for RPL100.
    """

    def __init__(self, index: _ProjectIndex, fn: _FunctionDecl) -> None:
        self.index = index
        self.fn = fn
        self.module = fn.module
        self.events = fn.events
        self._spawn_depth = 0
        #: shared names declared by the enclosing class (for bare-Name
        #: local aliases; attribute chains match globally).
        self._own_shared: frozenset[str] = frozenset()
        if fn.cls is not None:
            self._own_shared = self.module.shared_attrs.get(
                fn.cls, frozenset()
            )

    def build(self) -> None:
        for stmt in self.fn.node.body:
            self.visit(stmt)

    # -- helpers ---------------------------------------------------------
    def _emit_access(self, struct: str, kind: str, line: int) -> None:
        self.events.append((kind, struct, line))

    def _match_chain(self, expr: ast.expr) -> str | None:
        """The shared structure an attribute chain (or local alias)
        refers to, or None.  The *last* segment in source order wins:
        ``self.manager.dirtylist`` matches ``dirtylist``."""
        segments: list[str] = []
        cur = expr
        while isinstance(cur, ast.Attribute):
            segments.append(cur.attr)
            cur = cur.value
        for segment in segments:  # outermost attribute = last in source
            if segment in self.index.shared_names:
                return segment
        if (
            not segments
            and isinstance(cur, ast.Name)
            and cur.id in self._own_shared
        ):
            return cur.id  # local alias of an own-class structure
        return None

    @staticmethod
    def _is_atomic_call(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "atomic_section"

    @staticmethod
    def _atomic_label(expr: ast.Call) -> str:
        for kw in expr.keywords:
            if kw.arg == "label" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    return kw.value.value
        return "atomic"

    def _is_spawn(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr in _SPAWN_METHODS
        if isinstance(func, ast.Name):
            return func.id in _SPAWN_METHODS
        return False

    # -- call resolution -------------------------------------------------
    def _resolve(self, call: ast.Call, driven: bool) -> _CallSite:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            decl = self.module.functions.get(name)
            if decl is not None:
                return _CallSite(name, (decl,), driven)
            imported = self.module.imports.get(name)
            if imported is not None:
                source = self.index.module_by_suffix(imported[0])
                if source is not None:
                    target = source.functions.get(imported[1])
                    if target is not None:
                        return _CallSite(name, (target,), driven)
                    methods = source.classes.get(imported[1])
                    if methods is not None:  # imported class: constructor
                        init = methods.get("__init__")
                        return _CallSite(
                            name, (init,) if init else (), driven
                        )
            methods = self.module.classes.get(name)
            if methods is not None:  # local class: constructor call
                init = methods.get("__init__")
                return _CallSite(name, (init,) if init else (), driven)
            if name in _BUILTIN_NAMES:
                return _CallSite(name, (), driven)
            return _CallSite(name, None, driven)
        if isinstance(func, ast.Attribute):
            method = func.attr
            # super().method(): walk the enclosing class's resolvable
            # bases rather than falling through to the global owner
            # union (which for a dunder like __init__ would union every
            # constructor in the project and saturate effect sets).
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                return _CallSite(
                    f"super().{method}", self._resolve_super(method), driven
                )
            # self.method(): the enclosing class wins when it defines it.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.fn.cls is not None
            ):
                own = self.module.classes.get(self.fn.cls, {})
                if method in own:
                    return _CallSite(f"self.{method}", (own[method],), driven)
            # module alias: protocol.coalesce_ranges(...)
            if isinstance(func.value, ast.Name):
                base = func.value.id
                dotted = self.module.import_modules.get(base)
                if dotted is None and base in self.module.imports:
                    mod, orig = self.module.imports[base]
                    dotted = f"{mod}.{orig}"
                if dotted is not None:
                    source = self.index.module_by_suffix(dotted)
                    if source is not None and method in source.functions:
                        return _CallSite(
                            f"{base}.{method}",
                            (source.functions[method],),
                            driven,
                        )
            if method.startswith("__") and method.endswith("__"):
                # Dunder names are defined by nearly every class; the
                # global owner union would be pure noise.  Treat the
                # call as effect-free (dunders here are protocol hooks
                # like __len__/__contains__ on unmatched receivers).
                return _CallSite(f".{method}", (), driven)
            owners = self.index.method_owners.get(method)
            if owners:
                return _CallSite(f".{method}", tuple(owners), driven)
            return _CallSite(f".{method}", None, driven)
        return _CallSite("<dynamic>", None, driven)

    def _resolve_super(self, method: str) -> tuple[_FunctionDecl, ...]:
        """Candidates for ``super().method()``: every resolvable base
        of the enclosing class (breadth-first) that defines it."""
        if self.fn.cls is None:
            return ()
        found: list[_FunctionDecl] = []
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[_ModuleDecl, str]] = [
            (self.module, base)
            for base in self.module.class_bases.get(self.fn.cls, ())
        ]
        while queue:
            module, name = queue.pop(0)
            if name not in module.classes and name in module.imports:
                mod, orig = module.imports[name]
                source = self.index.module_by_suffix(mod)
                if source is None:
                    continue
                module, name = source, orig
            if (module.key, name) in seen:
                continue
            seen.add((module.key, name))
            methods = module.classes.get(name)
            if methods is None:
                continue
            if method in methods:
                found.append(methods[method])
            else:
                queue.extend(
                    (module, base)
                    for base in module.class_bases.get(name, ())
                )
        return tuple(found)

    # -- structure visitors ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are separate (un-analysed) closures

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # lambda bodies run later, at an unknown point

    def visit_With(self, node: ast.With) -> None:
        atomic_items = [
            item
            for item in node.items
            if self._is_atomic_call(item.context_expr)
        ]
        if not atomic_items:
            self.generic_visit(node)
            return
        with_id = id(node)
        label = self._atomic_label(
            _t.cast(ast.Call, atomic_items[0].context_expr)
        )
        self.events.append(("atomic_enter", with_id, node.lineno, label))
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        self.events.append(("atomic_exit", with_id))

    # -- accesses --------------------------------------------------------
    def _visit_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target(element)
            return
        if isinstance(target, ast.Starred):
            self._visit_target(target.value)
            return
        if isinstance(target, ast.Attribute):
            struct = self._match_chain(target)
            if struct is not None:
                self._emit_access(struct, "write", target.lineno)
            else:
                self.visit(target.value)
            return
        if isinstance(target, ast.Subscript):
            struct = self._match_chain(target.value)
            if struct is not None:
                self._emit_access(struct, "write", target.lineno)
            else:
                self.visit(target.value)
            self.visit(target.slice)
            return
        # bare Name targets rebind locals; not a structure write

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._visit_target(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._visit_target(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        struct = None
        if isinstance(node.target, ast.Attribute):
            struct = self._match_chain(node.target)
        elif isinstance(node.target, ast.Subscript):
            struct = self._match_chain(node.target.value)
        if struct is not None:
            self._emit_access(struct, "read", node.lineno)
        self.visit(node.value)
        self._visit_target(node.target)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._visit_target(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            struct = self._match_chain(node)
            if struct is not None:
                self._emit_access(struct, "read", node.lineno)
                return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self._own_shared:
            self._emit_access(node.id, "read", node.lineno)

    # -- calls and yields ------------------------------------------------
    def _visit_call(self, node: ast.Call, driven: bool) -> None:
        func = node.func
        if self._is_spawn(func):
            # Generator arguments are handed to the scheduler: their
            # bodies run in another process, so only argument
            # *evaluation* belongs here.
            self._spawn_depth += 1
            for arg in node.args:
                self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            self._spawn_depth -= 1
            return
        receiver_struct: str | None = None
        if isinstance(func, ast.Attribute):
            receiver_struct = self._match_chain(func.value)
            if receiver_struct is not None:
                kind = "write" if func.attr in MUTATING_METHODS else "read"
                self._emit_access(receiver_struct, kind, node.lineno)
            else:
                self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if self._spawn_depth:
            return  # creating, not running: effects belong elsewhere
        if receiver_struct is not None and not driven:
            # Method calls *on* a shared container are leaf dict/list
            # operations; the access above is the whole effect.
            return
        site = self._resolve(node, driven)
        self.events.append(("call", site, node.lineno))

    def visit_Call(self, node: ast.Call) -> None:
        self._visit_call(node, driven=False)

    def visit_Yield(self, node: ast.Yield) -> None:
        if node.value is not None:
            self.visit(node.value)
        self.events.append(("yield", node.lineno, "yield"))

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        if isinstance(node.value, ast.Call):
            self._visit_call(node.value, driven=True)
        else:
            self.visit(node.value)
            self.events.append(
                ("yield", node.lineno, "yield from <expression>")
            )


# ---------------------------------------------------------------------------
# Pass 3: fixed-point may-yield + effect propagation
# ---------------------------------------------------------------------------


def _fixed_point(functions: list[_FunctionDecl]) -> None:
    changed = True
    while changed:
        changed = False
        for fn in functions:
            may_yield = False
            reads: set[str] = set()
            writes: set[str] = set()
            for event in fn.events:
                tag = event[0]
                if tag == "read":
                    reads.add(event[1])
                elif tag == "write":
                    writes.add(event[1])
                elif tag == "yield":
                    may_yield = True
                elif tag == "call":
                    site: _CallSite = event[1]
                    if site.may_yield():
                        may_yield = True
                    for callee in site.effect_candidates():
                        reads |= callee.reads
                        writes |= callee.writes
            # Only generators can suspend their caller.
            may_yield = may_yield and fn.is_generator
            new_reads = frozenset(reads)
            new_writes = frozenset(writes)
            if (
                may_yield != fn.may_yield
                or new_reads != fn.reads
                or new_writes != fn.writes
            ):
                fn.may_yield = may_yield
                fn.reads = new_reads
                fn.writes = new_writes
                changed = True


# ---------------------------------------------------------------------------
# Pass 4a: RPL100/RPL101 — the read-modify-write scan
# ---------------------------------------------------------------------------


def _scan_rmw(fn: _FunctionDecl, findings: list[FlowFinding]) -> None:
    if not fn.is_generator:
        return  # plain bodies are atomic by construction

    def emit(code: str, line: int, message: str, detail: str) -> None:
        findings.append(
            FlowFinding(
                path=str(fn.module.path),
                line=line,
                col=0,
                code=code,
                message=message,
                qualname=fn.qualname,
                detail=detail,
            )
        )

    atomic_stack: list[tuple[int, str]] = []  # (with_id, label)
    reported_sections: set[int] = set()
    #: struct -> (read line, atomic ids active at the read)
    open_reads: dict[str, tuple[int, frozenset[int]]] = {}
    #: struct -> (read line, yield line, yield desc, atomic ids at read)
    armed: dict[str, tuple[int, int, str, frozenset[int]]] = {}

    def note_yield(line: int, desc: str) -> None:
        if atomic_stack:
            with_id, label = atomic_stack[-1]
            if with_id not in reported_sections:
                reported_sections.add(with_id)
                emit(
                    "RPL101",
                    line,
                    f"may-yield point ({desc}) inside atomic_section "
                    f"{label!r}: a context switch can interleave with "
                    "the section's supposedly-atomic updates",
                    label,
                )
        for struct in sorted(open_reads):
            if struct not in armed:
                read_line, stack = open_reads[struct]
                armed[struct] = (read_line, line, desc, stack)
        open_reads.clear()

    def note_read(struct: str, line: int) -> None:
        if struct not in open_reads and struct not in armed:
            open_reads[struct] = (
                line,
                frozenset(wid for wid, _ in atomic_stack),
            )

    def note_write(struct: str, line: int) -> None:
        write_stack = frozenset(wid for wid, _ in atomic_stack)
        if struct in armed:
            read_line, yield_line, desc, read_stack = armed.pop(struct)
            if not (read_stack & write_stack):
                emit(
                    "RPL100",
                    line,
                    f"read-modify-write of shared {struct!r} spans a "
                    f"may-yield point: read at line {read_line}, may "
                    f"yield at line {yield_line} ({desc}), written back "
                    "here with no atomic_section covering both ends",
                    struct,
                )
        open_reads.pop(struct, None)  # the write supersedes the read

    for event in fn.events:
        tag = event[0]
        if tag == "atomic_enter":
            atomic_stack.append((event[1], event[3]))
        elif tag == "atomic_exit":
            if atomic_stack and atomic_stack[-1][0] == event[1]:
                atomic_stack.pop()
        elif tag == "yield":
            note_yield(event[1], event[2])
        elif tag == "read":
            note_read(event[1], event[2])
        elif tag == "write":
            note_write(event[1], event[2])
        elif tag == "call":
            site: _CallSite = event[1]
            line = event[2]
            if site.may_yield():
                note_yield(line, f"{site.display}(...)")
            callee_reads: set[str] = set()
            callee_writes: set[str] = set()
            for callee in site.effect_candidates():
                callee_reads |= callee.reads
                callee_writes |= callee.writes
            for struct in sorted(callee_reads):
                note_read(struct, line)
            for struct in sorted(callee_writes):
                note_write(struct, line)


# ---------------------------------------------------------------------------
# Pass 4b: RPL110 — the determinism dataflow pass
# ---------------------------------------------------------------------------


class _DeterminismChecker(ast.NodeVisitor):
    """Flag unordered-collection iteration whose order becomes
    observable (scheduling, emission, ordered capture)."""

    def __init__(
        self,
        index: _ProjectIndex,
        fn: _FunctionDecl,
        findings: list[FlowFinding],
    ) -> None:
        self.index = index
        self.fn = fn
        self.findings = findings
        self.local_unordered: set[str] = set()

    def run(self) -> None:
        for stmt in ast.walk(self.fn.node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt is not self.fn.node:
                    continue
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and self._is_unordered(stmt.value)
            ):
                self.local_unordered.add(stmt.targets[0].id)
        for stmt in self.fn.node.body:
            self.visit(stmt)

    # -- classification --------------------------------------------------
    def _is_unordered(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.local_unordered
        if isinstance(expr, ast.Attribute):
            return expr.attr in self.index.unordered_names
        if isinstance(expr, ast.Subscript):
            value = expr.value
            return (
                isinstance(value, ast.Attribute)
                and value.attr in self.index.dict_of_set_names
            )
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_unordered(expr.left) or self._is_unordered(
                expr.right
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_COMBINATORS:
                    return self._is_unordered(func.value)
                if func.attr == "get" and isinstance(
                    func.value, ast.Attribute
                ):
                    return (
                        func.value.attr in self.index.dict_of_set_names
                    )
        return False

    def _emit(self, node: ast.AST, iterable: ast.expr, sink: str) -> None:
        try:
            what = ast.unparse(iterable)
        except Exception:
            what = "<expression>"
        self.findings.append(
            FlowFinding(
                path=str(self.fn.module.path),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code="RPL110",
                message=(
                    f"iteration over unordered '{what}' {sink}; the "
                    "order depends on the hash seed, which breaks "
                    "run-to-run determinism — iterate sorted(...) "
                    "instead"
                ),
                qualname=self.fn.qualname,
                detail=what[:80],
            )
        )

    # -- sinks -----------------------------------------------------------
    @staticmethod
    def _sorted_call(expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("sorted", "min", "max", "sum", "len")
        )

    def _body_sink(self, body: list[ast.stmt]) -> str | None:
        todo: list[ast.AST] = list(body)
        while todo:
            node = todo.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields into the scheduler inside the loop"
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _SINK_METHODS:
                    return f"calls .{node.func.attr}(...) inside the loop"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if any(isinstance(t, ast.Subscript) for t in targets):
                    return "stores per-element results in iteration order"
            todo.extend(ast.iter_child_nodes(node))
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scopes analysed separately (not at all)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_For(self, node: ast.For) -> None:
        if not self._sorted_call(node.iter) and self._is_unordered(node.iter):
            sink = self._body_sink(node.body)
            if sink is not None:
                self._emit(node, node.iter, sink)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def _check_comp(self, node: ast.ListComp | ast.DictComp) -> None:
        for gen in node.generators:
            if not self._sorted_call(gen.iter) and self._is_unordered(
                gen.iter
            ):
                self._emit(
                    node,
                    gen.iter,
                    "is captured into an ordered container",
                )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and self._is_unordered(node.args[0])
        ):
            self._emit(
                node,
                node.args[0],
                "is materialised into an ordered container",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Atomic-site enumeration (for --runtime-coverage)
# ---------------------------------------------------------------------------


def _collect_atomic_sites(fn: _FunctionDecl) -> list[AtomicSite]:
    sites: list[AtomicSite] = []
    for event in fn.events:
        if event[0] == "atomic_enter":
            sites.append(
                AtomicSite(
                    path=str(fn.module.path),
                    line=event[2],
                    qualname=fn.qualname,
                    label=event[3],
                )
            )
    return sites


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FlowReport:
    """Everything one analysis run produced."""

    findings: list[FlowFinding]
    #: "module-key::qualname" -> may-yield classification.
    may_yield: dict[str, bool]
    atomic_sites: list[AtomicSite]

    def classification(self, suffix: str) -> bool:
        """May-yield lookup by qualname suffix (test convenience)."""
        matches = [
            yields
            for key, yields in self.may_yield.items()
            if key == suffix or key.endswith("::" + suffix)
        ]
        if len(matches) != 1:
            raise KeyError(f"{suffix!r} matches {len(matches)} functions")
        return matches[0]


def analyze_paths(paths: _t.Sequence[Path]) -> FlowReport:
    """Analyse every ``.py`` file under ``paths``.

    Returns findings (noqa-suppressed ones already removed, sorted by
    location), the full may-yield classification, and every static
    ``atomic_section`` site."""
    files = _iter_py_files([Path(p) for p in paths])
    index = _ProjectIndex()
    for file in files:
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise SystemExit(f"{file}: cannot parse: {exc}") from exc
        key = str(file.with_suffix("")).replace("\\", "/")
        index.add_module(
            _ModuleDecl(
                path=file,
                key=key,
                tree=tree,
                source_lines=source.splitlines(),
            )
        )
    index.finalise()
    functions = index.all_functions()
    for fn in functions:
        _EventBuilder(index, fn).build()
    _fixed_point(functions)

    findings: list[FlowFinding] = []
    atomic_sites: list[AtomicSite] = []
    for fn in functions:
        _scan_rmw(fn, findings)
        _DeterminismChecker(index, fn, findings).run()
        atomic_sites.extend(_collect_atomic_sites(fn))

    kept = [
        f
        for f in findings
        if not _suppressed(
            index.modules[
                str(Path(f.path).with_suffix("")).replace("\\", "/")
            ].source_lines,
            f,
        )
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return FlowReport(
        findings=kept,
        may_yield={fn.key: fn.may_yield for fn in functions},
        atomic_sites=atomic_sites,
    )


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def load_baseline(path: Path) -> set[str]:
    """Fingerprints accepted by the committed baseline (blank lines
    and ``#`` comments ignored)."""
    if not path.exists():
        return set()
    entries: set[str] = set()
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def apply_baseline(
    findings: _t.Sequence[FlowFinding], baseline: set[str]
) -> tuple[list[FlowFinding], set[str]]:
    """Split findings into (unbaselined, used-entries)."""
    unbaselined: list[FlowFinding] = []
    used: set[str] = set()
    for finding in findings:
        fp = finding.fingerprint()
        if fp in baseline:
            used.add(fp)
        else:
            unbaselined.append(finding)
    return unbaselined, used


def write_baseline(findings: _t.Sequence[FlowFinding], path: Path) -> None:
    """Write the sorted, de-duplicated fingerprints to ``path``."""
    header = (
        "# repro.analysis.flow accepted-findings baseline.\n"
        "# One fingerprint per line: code|path|qualname|detail.\n"
        "# Regenerate with: python -m repro.analysis flow --write-baseline\n"
        "# (regeneration drops the explanatory comments — re-add them).\n"
    )
    fingerprints = sorted({f.fingerprint() for f in findings})
    path.write_text(header + "".join(fp + "\n" for fp in fingerprints))


def _default_baseline_path() -> Path:
    return Path(__file__).resolve().parents[3] / "analysis_baseline.txt"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: _t.Sequence[str]) -> int:
    """CLI entry point for ``python -m repro.analysis flow``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis flow",
        description="interprocedural may-yield race / determinism analysis",
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: analysis_baseline.txt at repo root)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept every current finding into the baseline file",
    )
    parser.add_argument(
        "--runtime-coverage",
        metavar="FILE",
        default=None,
        help=(
            "compare static atomic_section sites against the labels "
            "recorded at runtime (REPRO_ATOMIC_COVERAGE_FILE) and "
            "report never-executed sections as coverage gaps"
        ),
    )
    ns = parser.parse_args(list(argv))

    targets = [Path(p) for p in ns.paths]
    if not targets:
        targets = [Path(__file__).resolve().parents[2]]
    report = analyze_paths(targets)

    if ns.runtime_coverage is not None:
        return _coverage_mode(report, Path(ns.runtime_coverage))

    baseline_path = (
        Path(ns.baseline) if ns.baseline else _default_baseline_path()
    )
    if ns.write_baseline:
        write_baseline(report.findings, baseline_path)
        print(
            f"wrote {len(report.findings)} finding(s) to {baseline_path}"
        )
        return 0

    baseline = load_baseline(baseline_path)
    unbaselined, used = apply_baseline(report.findings, baseline)
    for finding in unbaselined:
        print(finding.render())
    stale = len(baseline) - len(used)
    if stale:
        print(f"note: {stale} stale baseline entr{'y' if stale == 1 else 'ies'}")
    if unbaselined:
        print(f"{len(unbaselined)} finding(s)")
        return 1
    print(f"clean ({len(used)} baselined finding(s))")
    return 0


def _coverage_mode(report: FlowReport, coverage_file: Path) -> int:
    executed: set[str] = set()
    if coverage_file.exists():
        executed = {
            line.strip()
            for line in coverage_file.read_text().splitlines()
            if line.strip()
        }
    gaps = [s for s in report.atomic_sites if s.label not in executed]
    for site in gaps:
        print(
            f"{site.path}:{site.line}: atomic_section {site.label!r} in "
            f"{site.qualname} was never executed by the recorded run"
        )
    unknown = executed - {s.label for s in report.atomic_sites}
    for label in sorted(unknown):
        print(f"note: runtime label {label!r} has no static site")
    total = len(report.atomic_sites)
    if gaps:
        print(f"{len(gaps)}/{total} atomic_section site(s) uncovered")
        return 1
    print(f"all {total} atomic_section site(s) covered")
    return 0
