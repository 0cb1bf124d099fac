"""Tests for the terminal chart renderer."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.plots import render_chart


def _result():
    r = ExperimentResult("figX", "demo", "size", "seconds")
    a = r.new_series("Caching")
    b = r.new_series("No Caching")
    for i, x in enumerate((1024, 4096, 65536)):
        a.add(x, 0.001 * (i + 1))
        b.add(x, 0.004 * (i + 1))
    return r


def test_render_chart_contains_series_glyphs_and_legend():
    out = render_chart(_result())
    assert "figX: demo" in out
    assert "o=Caching" in out
    assert "x=No Caching" in out
    assert "o" in out and "x" in out
    assert "(log x)" in out


def test_render_chart_linear_axes():
    out = render_chart(_result(), log_x=False)
    assert "(log x)" not in out


def test_render_chart_empty_result():
    r = ExperimentResult("e", "nothing", "x", "y")
    assert "(no data)" in render_chart(r)


def test_render_chart_log_rejects_nonpositive():
    r = ExperimentResult("bad", "bad", "x", "y")
    s = r.new_series("s")
    s.add(0, 1.0)
    with pytest.raises(ValueError):
        render_chart(r, log_x=True)


def test_render_chart_collision_marker():
    r = ExperimentResult("c", "collide", "x", "y")
    for label in ("a", "b"):
        s = r.new_series(label)
        s.add(1, 1.0)  # same point in both series
        s.add(10, 2.0 if label == "a" else 1.5)
    out = render_chart(r, log_x=False)
    assert "?" in out


def test_render_chart_single_point():
    r = ExperimentResult("p", "point", "x", "y")
    r.new_series("only").add(5, 0.5)
    out = render_chart(r, log_x=False)
    assert "o" in out
