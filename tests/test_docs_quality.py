"""Documentation quality gate: every public item carries a docstring,
and the prose names only files that exist.

Deliverable (e) of the reproduction requires doc comments on every
public item; this test enforces it structurally so regressions fail CI
rather than review.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
]


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(obj) is not module:
            continue  # re-exports documented at their home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def test_every_module_has_docstring():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing.append(name)
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_documented():
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, obj in _public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module_name}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_public_methods_documented():
    """Public methods of public classes need docstrings too (dataclass
    auto-generated members excluded)."""
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for cls_name, cls in _public_members(module):
            if not inspect.isclass(cls):
                continue
            for name, member in vars(cls).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isfunction(member) or isinstance(member, property)):
                    continue
                doc = (
                    member.fget.__doc__
                    if isinstance(member, property) and member.fget
                    else getattr(member, "__doc__", None)
                )
                if not (doc or "").strip():
                    missing.append(f"{module_name}.{cls_name}.{name}")
    assert not missing, f"undocumented public methods: {missing}"


def test_packages_importable():
    for name in MODULES:
        importlib.import_module(name)


# -- the docs name only files that exist --------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")

#: A back-ticked word that is a repo path: ``dir/``, ``dir/.../file.ext``
#: or a root ``*.json``/``*.md``/``*.txt``, optionally followed by a
#: ``:line`` / ``::test`` locator and closing punctuation.
_REPO_PATH = re.compile(
    r"((?:[\w.-]+/)+(?:[\w.-]+\.(?:py|md|json|jsonl|txt|yml|toml))?"
    r"|[\w.-]+\.(?:json|md|txt))"
    r"(?:::[\w\[\].-]+|:\d+(?:[-–,]\d+)*)?[.,;)]*$"
)


@pytest.mark.parametrize("doc", [d for d in DOCS if (ROOT / d).exists()])
def test_docs_name_only_paths_that_exist(doc):
    """Paths may be written from the root, from ``src/`` or from
    ``src/repro/`` (``cache/module.py``)."""
    stale = []
    for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        for span in re.findall(r"`([^`\n]+)`", line):
            for word in span.split():
                match = _REPO_PATH.match(word)
                if match and not any(
                    (ROOT / base / match.group(1)).exists()
                    for base in ("", "src", "src/repro")
                ):
                    stale.append(f"{doc}:{lineno}: {word}")
    assert not stale, "docs name paths that do not exist:\n" + "\n".join(stale)
