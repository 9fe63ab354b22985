"""Regenerate Table 2 (deployment guidelines)."""

from repro.api import run_experiment


def test_bench_table2():
    result = run_experiment("table2")
    # The advisor must match the published table cell for cell.
    assert result.extra["matches"]
