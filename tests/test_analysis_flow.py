"""The interprocedural flow analyzer: every seeded fixture violation
fires (and nothing else), may-yield classification propagates through
indirect call chains, noqa outranks the baseline, and the runtime
coverage join reports never-executed atomic sections."""

import re
from pathlib import Path

from repro.analysis import sanitize
from repro.analysis.flow import analyze_paths, main
from repro.analysis.lint import lint_paths
from repro.analysis.reset import reset_all
from repro.analysis.shared import declared_shared, shared_state

DATA = Path(__file__).parent / "data"
RMW = DATA / "flow_fixture_rmw.py"
ATOMIC = DATA / "flow_fixture_atomic.py"
DETERMINISM = DATA / "flow_fixture_determinism.py"
INTERACTION = DATA / "flow_fixture_interaction.py"
FIXTURES = [RMW, ATOMIC, DETERMINISM, INTERACTION]
SRC_TREE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: flow rules carry trailing `# RPL1xx` markers; `# RPL006` belongs
#: to the lint (see test_interaction_fixture_splits_by_analyzer).
_FLOW_MARKER = re.compile(r"#\s*(RPL1\d\d)\b")


def _seeded_markers(path: Path) -> set[tuple[str, str, int]]:
    markers = set()
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _FLOW_MARKER.search(line)
        if match:
            markers.add((path.name, match.group(1), lineno))
    return markers


def test_fixtures_trip_exactly_the_seeded_violations():
    report = analyze_paths(FIXTURES)
    found = {
        (Path(f.path).name, f.code, f.line) for f in report.findings
    }
    expected = set()
    for fixture in FIXTURES:
        expected |= _seeded_markers(fixture)
    # set equality: every seeded violation fires, zero false positives
    assert found == expected


def test_fixture_exits_nonzero(tmp_path, capsys):
    empty_baseline = tmp_path / "baseline.txt"
    argv = [str(f) for f in FIXTURES] + ["--baseline", str(empty_baseline)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    for code in ("RPL100", "RPL101", "RPL110"):
        assert code in out
    assert "finding(s)" in out


def test_may_yield_propagates_through_three_deep_chain():
    report = analyze_paths([RMW])
    # indirect_rmw -> deep_mid -> deep_leaf: only the leaf has a
    # bare yield; the others must be classified by propagation.
    assert report.classification("Manager.deep_leaf") is True
    assert report.classification("Manager.deep_mid") is True
    assert report.classification("Manager.indirect_rmw") is True
    # and the chain produces the RPL100 at the write-back site
    chain = [
        f
        for f in report.findings
        if f.code == "RPL100" and "counters" in f.message
    ]
    assert len(chain) == 1
    assert "deep_mid" in chain[0].message


def test_plain_function_is_not_may_yield():
    report = analyze_paths([DETERMINISM])
    assert report.classification("Fanout.aggregation_is_safe") is False


_RACY = """\
from repro.analysis.shared import shared_state


@shared_state("table")
class M:
    def __init__(self, env):
        self.env = env
        self.table = {}

    def racy(self, key):
        value = self.table.get(key)
        yield self.env.timeout(1)
        self.table[key] = value@NOQA@
"""


def test_noqa_takes_precedence_over_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    mod = tmp_path / "mod.py"
    mod.write_text(_RACY.replace("@NOQA@", ""))
    # without noqa: flagged, then accepted into the baseline
    assert main([str(mod), "--baseline", str(baseline)]) == 1
    assert main([str(mod), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main([str(mod), "--baseline", str(baseline)]) == 0
    capsys.readouterr()
    # with noqa: suppressed before baseline matching, so the baseline
    # entry goes stale instead of being consumed
    mod.write_text(_RACY.replace("@NOQA@", "  # noqa: RPL100 - fixture"))
    assert main([str(mod), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entr" in out
    assert "clean (0 baselined finding(s))" in out


def test_write_baseline_round_trip(tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    assert main([str(RMW), "--baseline", str(baseline), "--write-baseline"]) == 0
    entries = [
        line
        for line in baseline.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(entries) == 3  # racy_rmw, racy_mutator, indirect_rmw
    assert all(entry.startswith("RPL100|") for entry in entries)
    capsys.readouterr()
    assert main([str(RMW), "--baseline", str(baseline)]) == 0
    assert "clean (3 baselined finding(s))" in capsys.readouterr().out


def test_source_tree_is_clean(capsys):
    # the committed analysis_baseline.txt covers the accepted findings
    assert main([str(SRC_TREE)]) == 0
    assert "clean" in capsys.readouterr().out


def test_runtime_coverage_reports_unexecuted_sections(
    tmp_path, monkeypatch, capsys
):
    coverage = tmp_path / "coverage.txt"
    monkeypatch.setenv(sanitize.COVERAGE_ENV_VAR, str(coverage))
    reset_all()  # the variable is resolved here, not per section
    with sanitize.atomic_section(object(), label="good_section"):
        pass
    # only one of the fixture's two sections executed: a gap remains
    assert main(["--runtime-coverage", str(coverage), str(ATOMIC)]) == 1
    out = capsys.readouterr().out
    assert "bad_section" in out
    assert "1/2 atomic_section site(s) uncovered" in out
    with sanitize.atomic_section(object(), label="bad_section"):
        pass
    assert main(["--runtime-coverage", str(coverage), str(ATOMIC)]) == 0
    assert "all 2 atomic_section site(s) covered" in capsys.readouterr().out


def test_coverage_file_is_resolved_at_reset_and_labels_recorded_once(
    tmp_path, monkeypatch
):
    coverage = tmp_path / "coverage.txt"
    monkeypatch.setenv(sanitize.COVERAGE_ENV_VAR, str(coverage))
    with sanitize.atomic_section(object(), label="too_early"):
        pass
    assert not coverage.exists()  # set after import, before any reset
    reset_all()
    for _ in range(3):
        for label in ("first", "second"):
            with sanitize.atomic_section(object(), label=label):
                pass
    assert coverage.read_text().splitlines() == ["first", "second"]
    monkeypatch.delenv(sanitize.COVERAGE_ENV_VAR)
    reset_all()
    with sanitize.atomic_section(object(), label="third"):
        pass
    assert coverage.read_text().splitlines() == ["first", "second"]


def test_runtime_coverage_flags_unknown_labels(tmp_path, capsys):
    coverage = tmp_path / "coverage.txt"
    coverage.write_text("good_section\nbad_section\nphantom\n")
    assert main(["--runtime-coverage", str(coverage), str(ATOMIC)]) == 0
    assert "runtime label 'phantom' has no static site" in (
        capsys.readouterr().out
    )


def test_interaction_fixture_splits_by_analyzer():
    # one module, two analyzers: the lint owns RPL006, flow owns RPL100
    lint_codes = {f.code for f in lint_paths([INTERACTION])}
    assert lint_codes == {"RPL006"}
    flow_codes = {f.code for f in analyze_paths([INTERACTION]).findings}
    assert flow_codes == {"RPL100"}


def test_shared_state_registry_unions_across_inheritance():
    @shared_state("table")
    class Base:
        pass

    @shared_state("queue")
    class Derived(Base):
        pass

    assert declared_shared(Base) == frozenset({"table"})
    assert declared_shared(Derived) == frozenset({"table", "queue"})
