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


# -- the docs name only knobs that exist ---------------------------------------

KNOB_DOCS = ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml")

#: Environment variables whose readers were deleted (DESIGN.md appendix
#: A).  A doc that still offers one is stale, and so is source that
#: still spells one.
REMOVED = {
    "REPRO_ATOMIC_COVERAGE_FILE",
    "REPRO_DISK_MODEL",
    "REPRO_ENGINE_MACRO",
    "REPRO_NET_MODEL",
    "REPRO_SANITIZE",
    "REPRO_SANITIZE_EVERY",
    "REPRO_TRACE",
    "REPRO_MGR_SHARDS",
}


def test_docs_name_only_env_vars_the_program_reads():
    source = "\n".join(
        path.read_text() for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    )
    stale = []
    for doc in KNOB_DOCS:
        for name in set(re.findall(r"\bREPRO_[A-Z_]+\b", (ROOT / doc).read_text())):
            # Read by the program = spelled as a string literal in it.
            if name in REMOVED or not re.search(rf"""["']{name}["']""", source):
                stale.append(f"{doc}: {name}")
    assert not stale, f"docs name environment variables nothing reads: {stale}"
    # Whole words: ``REPRO_TRACE`` is a prefix of the live ``REPRO_TRACE_HASH``.
    revived = sorted(name for name in REMOVED if re.search(rf"\b{name}\b", source))
    assert not revived, f"removed variables still spelled in src/repro: {revived}"


#: Observation paths folded into the four homes of a number (DESIGN.md
#: appendix A.11): ``Metrics``, the svc bus's ``ServiceStats``,
#: ``Environment.sched_stats()`` and ``Network.stats_snapshot()``; and
#: the second raw bodies, run loops, transport and knobs of appendix
#: A.13; the FIFO mailbox the writeback daemon's dirty-page set
#: replaced; the hand-built containers and single-block twins of
#: appendix A.15.
REMOVED_NAMES = {
    "BlockHashTable",
    "DaemonMonitor",
    "DirtyList",
    "MMPPArrivals",
    "Mailbox",
    "Network.endpoint",
    "Network.register",
    "Network.send",
    "PVFSShell",
    "ResourceMonitor",
    "SharingClassifier",
    "_endpoints",
    "_handle_sync_write",
    "_iod_for_block",
    "_listeners",
    "_load_csv",
    "_next_prime",
    "_raw_readv",
    "_raw_writev",
    "_run_instrumented",
    "_trace_ranges",
    "_write_back_local",
    "attach_bus",
    "chain_lengths",
    "classify_trace",
    "first_resident",
    "has_block",
    "has_endpoint",
    "prefer_clean",
    "read_block",
    "record_network_metrics",
    "record_scheduler_metrics",
    "remix_sharing",
    "resident_keys",
    "scale_out",
    "stream_state",
    "write_block",
    "zipf_reskew",
}


def test_no_removed_name_is_spelled_in_source_or_docs():
    texts = {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    }
    for doc in DOCS:
        if (ROOT / doc).exists():
            text = (ROOT / doc).read_text()
            # Appendix A tells what went and why, by name.
            texts[doc] = text.split("\n## Appendix A.")[0]
    stale = sorted(
        f"{where}: {name}"
        for where, text in texts.items()
        for name in REMOVED_NAMES
        if name in text
    )
    assert not stale, "removed names still spelled:\n" + "\n".join(stale)


def test_docs_name_only_cli_flags_the_parser_has(capsys):
    from repro.experiments.report import main

    with pytest.raises(SystemExit):
        main(["--help"])
    known = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    stale = []
    for doc in KNOB_DOCS:
        for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            # The flags of one command line: up to the closing back-tick
            # of an inline span, ``.validate`` is another program.
            for command in re.findall(
                r"python -m repro\.experiments(?![.\w])([^`]*)", line
            ):
                for flag in re.findall(r"--[a-z][a-z-]*", command):
                    if flag not in known:
                        stale.append(f"{doc}:{lineno}: {flag}")
    assert not stale, "docs show flags --help does not list:\n" + "\n".join(stale)


def test_docs_name_only_workload_subcommands_and_flags_the_cli_has(capsys):
    """``python -m repro.workload [sub] --flags`` in the docs: each
    subcommand named (``a|b`` alternatives too) exists, and each flag
    is one that command's ``--help`` lists."""
    from repro.workload.__main__ import SUBCOMMANDS, main

    def flags(*argv):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))

    known = {sub: flags(sub) for sub in SUBCOMMANDS}
    bare = flags()
    stale = []
    for doc in KNOB_DOCS:
        for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            for command in re.findall(
                r"python -m repro\.workload(?![.\w])([^`]*)", line
            ):
                words = command.split()
                allowed = bare
                if words and not words[0].startswith("-"):
                    subs = words[0].split("|")
                    for sub in subs:
                        if sub not in known:
                            stale.append(f"{doc}:{lineno}: {sub}")
                    allowed = set().union(*(known.get(sub, ()) for sub in subs))
                for flag in re.findall(r"--[a-z][a-z-]*", command):
                    if flag not in allowed:
                        stale.append(f"{doc}:{lineno}: {flag}")
    assert not stale, (
        "docs show subcommands or flags the workload CLI lacks:\n"
        + "\n".join(stale)
    )
