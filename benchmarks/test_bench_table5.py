"""Regenerate Table 5 (AS numbers per CDN)."""

from repro.api import run_experiment


def test_bench_table5():
    result = run_experiment("table5")
    assert result.extra["matches"]
