"""The custom sim lint: every rule fires on the seeded fixture, the
real source tree stays clean, and ``noqa`` suppression works."""

from pathlib import Path

from repro.analysis.lint import lint_paths, main

FIXTURE = Path(__file__).parent / "data" / "lint_fixture.py"
SRC_TREE = Path(__file__).resolve().parents[1] / "src" / "repro"

ALL_CODES = {"RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006"}


def test_fixture_trips_every_rule():
    findings = lint_paths([FIXTURE])
    assert {f.code for f in findings} == ALL_CODES


def test_fixture_exits_nonzero(capsys):
    assert main([str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out
    assert "finding(s)" in out


def test_findings_point_at_the_hazard_lines():
    source = FIXTURE.read_text().splitlines()
    for finding in lint_paths([FIXTURE]):
        flagged = source[finding.line - 1]
        assert finding.code[:3] == "RPL"
        # every seeded hazard line is marked with its code
        assert finding.code in flagged, (finding, flagged)


def test_noqa_suppresses():
    findings = [f for f in lint_paths([FIXTURE]) if f.code == "RPL004"]
    # 'shared_registry' is flagged; 'suppressed_registry' carries a noqa
    assert len(findings) == 1
    assert "shared_registry" in findings[0].message


def test_source_tree_is_clean(capsys):
    assert main([str(SRC_TREE)]) == 0
    assert "clean" in capsys.readouterr().out


def test_registered_reset_hook_satisfies_rpl004(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(
        "import itertools\n"
        "from repro.analysis.reset import register_reset\n"
        "\n"
        "_ids = itertools.count(1)\n"
        "\n"
        "\n"
        "def _reset_ids():\n"
        "    global _ids\n"
        "    _ids = itertools.count(1)\n"
        "\n"
        "\n"
        "register_reset(_reset_ids)\n"
    )
    assert lint_paths([good]) == []


def test_plain_helper_statement_not_flagged(tmp_path):
    mod = tmp_path / "plain.py"
    mod.write_text(
        "def plain(x):\n"
        "    return x + 1\n"
        "\n"
        "\n"
        "def caller():\n"
        "    plain(1)\n"
    )
    assert lint_paths([mod]) == []


def test_rpl006_flags_heapq_outside_sim(tmp_path):
    mod = tmp_path / "scheduler.py"
    mod.write_text("from heapq import heappush\nimport heapq\n")
    findings = lint_paths([mod])
    assert [f.code for f in findings] == ["RPL006", "RPL006"]
    assert "repro.sim" in findings[0].message


def test_rpl006_exempts_the_engine_package(tmp_path):
    simdir = tmp_path / "repro" / "sim"
    simdir.mkdir(parents=True)
    engine = simdir / "engine.py"
    engine.write_text("import heapq\nheapq.heapify([])\n")
    assert lint_paths([engine]) == []
