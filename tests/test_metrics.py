"""Unit tests for the metrics collector and the nearest-rank percentile."""

import math

from repro.metrics import Metrics
from repro.workload.openloop import _percentile


def test_counters():
    m = Metrics()
    assert m.count("x") == 0
    m.inc("x")
    m.inc("x", 5)
    assert m.count("x") == 6


def test_series_basic():
    m = Metrics()
    for v in (1.0, 2.0, 3.0):
        m.record("lat", v)
    assert m.series["lat"] == [1.0, 2.0, 3.0]
    assert m.mean("lat") == 2.0


def test_empty_series_stats():
    m = Metrics()
    assert math.isnan(m.mean("ghost"))
    assert "ghost" not in m.series
    assert math.isnan(_percentile([], 50))


def test_percentiles():
    ordered = [float(v) for v in range(1, 101)]
    assert _percentile(ordered, 50) == 50.0
    assert _percentile(ordered, 95) == 95.0
    assert _percentile(ordered, 100) == 100.0
    assert _percentile(ordered, 0) == 1.0
