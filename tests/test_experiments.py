"""Tests for the experiment result containers and harness machinery."""

import io

import pytest

from repro.experiments.common import (
    QUICK_SIZES,
    ExperimentResult,
    Series,
    SeriesPoint,
    single_point,
    sweep_sizes,
)
from repro.experiments.fig4 import run_fig4
from repro.experiments.overhead import (
    PAPER_BOUND_S,
    measure_hit_cost,
    run_overhead,
)
from repro.experiments.parallel import WORKERS_ENV_VAR
from repro.experiments.report import RUNNERS, main, run_all


# -- Series / ExperimentResult --------------------------------------------


def test_series_add_and_lookup():
    s = Series(label="x")
    s.add(1, 0.5, hits=3)
    s.add(2, 0.25)
    assert s.xs == [1, 2]
    assert s.ys == [0.5, 0.25]
    assert s.y_at(2) == 0.25
    assert s.points[0].extra == {"hits": 3}
    with pytest.raises(KeyError):
        s.y_at(99)


def test_result_get_and_new_series():
    r = ExperimentResult("t", "title", "x", "y")
    s = r.new_series("a")
    assert r.get("a") is s
    with pytest.raises(KeyError):
        r.get("missing")


def test_result_table_rendering():
    r = ExperimentResult("fig0", "demo", "size", "seconds")
    a = r.new_series("Caching")
    b = r.new_series("No Caching")
    a.add(1024, 0.001)
    a.add(4096, 0.002)
    b.add(1024, 0.003)
    r.notes = "hello"
    table = r.to_table()
    assert "fig0: demo" in table
    assert "Caching" in table and "No Caching" in table
    assert "0.001000" in table
    # b has no point at 4096: renders as '-'
    assert "-" in table
    assert "note: hello" in table


def test_result_table_empty():
    r = ExperimentResult("e", "empty", "x", "y")
    r.new_series("only")
    table = r.to_table()
    assert "empty" in table


def test_sweep_sizes():
    assert len(sweep_sizes(quick=False)) == 6
    assert len(sweep_sizes(quick=True)) == 3
    assert max(sweep_sizes(False)) == 1048576


# -- overhead experiment ------------------------------------------------------


def test_overhead_measurement_satisfies_paper_bound():
    m = measure_hit_cost(4)
    assert m.blocks == 4
    assert 0 < m.per_block_s < PAPER_BOUND_S


def test_overhead_experiment_result_shape():
    result = run_overhead(block_counts=(1, 2))
    assert result.experiment_id == "overhead"
    series = result.get("hit service time / block")
    assert series.xs == [1, 2]
    assert all(y < PAPER_BOUND_S for y in series.ys)


# -- figure drivers -----------------------------------------------------------


def test_run_fig4_quick_panels_and_shared_point(monkeypatch):
    """The driver sweeps the shared point function: a cell of the
    figure equals a direct call with the same arguments."""
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")  # same process as the calls below
    panels = run_fig4(quick=True)
    assert [r.experiment_id for r in panels] == ["fig4a", "fig4b"]
    for result in panels:
        assert [s.label for s in result.series] == ["Caching", "No Caching"]
        assert all(s.xs == QUICK_SIZES for s in result.series)
    reads, writes = panels
    assert reads.get("No Caching").y_at(4096) == single_point(
        4096, "read", False, 0.0, 4, 32
    )
    assert writes.get("Caching").y_at(65536) == single_point(
        65536, "write", True, 0.0, 4, 32
    )


# -- report runner -----------------------------------------------------------


def test_run_all_with_subset():
    stream = io.StringIO()
    results = run_all(only=["overhead"], stream=stream)
    assert len(results) == 1
    out = stream.getvalue()
    assert "overhead" in out
    assert "400 us" in out


def test_run_all_unknown_experiment():
    with pytest.raises(SystemExit):
        run_all(only=["fig99"])


def test_runner_registry_covers_every_figure():
    assert set(RUNNERS) == {
        "overhead", "fig4", "fig5", "fig6", "fig7", "fig8",
        "sensitivity", "extensions", "scaling",
    }


def test_default_set_is_the_papers_figures():
    from repro.experiments.report import DEFAULT_SET

    assert DEFAULT_SET == ["overhead", "fig4", "fig5", "fig6", "fig7", "fig8"]
    assert all(name in RUNNERS for name in DEFAULT_SET)


def test_run_all_with_charts():
    stream = io.StringIO()
    run_all(only=["overhead"], stream=stream, charts=True)
    out = stream.getvalue()
    assert "legend:" in out  # the chart rendered


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mgr-shards", "0"], "--mgr-shards must be >= 1, got 0"),
        (["--mgr-shards", "-2"], "--mgr-shards must be >= 1, got -2"),
        # Removed with the macro read path (DESIGN.md appendix A.2).
        (["--engine-macro"], "unrecognized arguments: --engine-macro"),
        # Removed with the fluid network model (DESIGN.md appendix A.3).
        (
            ["--net-model", "fluid"],
            "unrecognized arguments: --net-model fluid",
        ),
    ],
)
def test_cli_rejects_bad_flags_at_parse_time(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
