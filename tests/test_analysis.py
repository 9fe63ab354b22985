"""Tests for statistics and rendering helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.render import render_series, render_table
from repro.analysis.stats import (
    cdf,
    median,
    percentile,
    percentile_interval,
    summarize,
)


def test_median_basics():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert median([]) is None
    assert median([None, 5.0, None]) == 5.0


def test_percentile_interpolation():
    data = [0.0, 10.0]
    assert percentile(data, 0) == 0.0
    assert percentile(data, 50) == 5.0
    assert percentile(data, 100) == 10.0
    with pytest.raises(ValueError):
        percentile(data, 101)


def test_percentile_interval_width():
    data = list(range(101))
    interval = percentile_interval([float(x) for x in data], 50.0)
    assert interval == (25.0, 75.0)
    with pytest.raises(ValueError):
        percentile_interval(data, 0.0)


def test_cdf_shape():
    points = cdf([3.0, 1.0, 2.0])
    assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]


def test_summarize():
    summary = summarize([1.0, 2.0, 3.0, 4.0, None])
    assert summary.count == 4
    assert summary.median == 2.5
    assert summary.minimum == 1.0 and summary.maximum == 4.0
    assert "median" in summary.format()
    assert summarize([]).format() == "n=0"


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
def test_median_bounded_by_extremes(values):
    result = median(values)
    assert min(values) <= result <= max(values)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2),
    st.floats(min_value=0, max_value=100),
)
def test_percentile_monotone_in_q(values, q):
    low = percentile(values, max(0.0, q - 10) if q >= 10 else 0.0)
    high = percentile(values, q)
    assert low <= high + 1e-9


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1))
def test_cdf_is_monotone_and_ends_at_one(values):
    points = cdf(values)
    assert points[-1][1] == pytest.approx(1.0)
    probabilities = [p for _, p in points]
    assert probabilities == sorted(probabilities)
    xs = [x for x, _ in points]
    assert xs == sorted(xs)


def test_render_table_alignment_and_none():
    text = render_table(
        ["name", "value"],
        [["alpha", 1.5], ["b", None]],
        title="demo",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "alpha" in lines[3]
    assert lines[4].split()[-1] == "-"  # None rendered as dash


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [[1]])


def test_render_series():
    text = render_series("series", [(1, 2.0), (2, 4.0)], "x", "y")
    assert "series" in text
    assert "4.00" in text
