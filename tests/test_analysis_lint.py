"""The custom sim lint: its rule fires on the seeded fixture and only
there, the real source tree stays clean, and ``noqa`` suppression
works."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import lint_paths, main

FIXTURE = Path(__file__).parent / "data" / "lint_fixture.py"
SRC_TREE = Path(__file__).resolve().parents[1] / "src" / "repro"

ALL_CODES = {"RPL005"}


def test_fixture_trips_every_rule():
    findings = lint_paths([FIXTURE])
    assert {f.code for f in findings} == ALL_CODES


def test_fixture_exits_nonzero(capsys):
    assert main([str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "RPL005" in out
    assert "finding(s)" in out


def test_findings_point_at_the_hazard_lines():
    source = FIXTURE.read_text().splitlines()
    for finding in lint_paths([FIXTURE]):
        flagged = source[finding.line - 1]
        assert finding.code[:3] == "RPL"
        # every seeded hazard line is marked with its code
        assert finding.code in flagged, (finding, flagged)


def test_noqa_suppresses():
    findings = lint_paths([FIXTURE])
    # 'swallows_kill' is flagged; 'swallows_kill_knowingly' has a noqa
    assert [f.message.split()[2] for f in findings] == ["GeneratorExit"]


def test_source_tree_is_clean(capsys):
    assert main([str(SRC_TREE)]) == 0
    assert "clean" in capsys.readouterr().out


def test_removed_flow_subcommand_fails_loudly():
    """The static flow analyzer was deleted (DESIGN.md appendix A.6):
    its subcommand is an error, not a silent no-op."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "flow", str(SRC_TREE)],
        env=dict(os.environ, PYTHONPATH=str(SRC_TREE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "unknown subcommand 'flow'" in done.stderr
