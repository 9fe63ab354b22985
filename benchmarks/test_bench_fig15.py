"""Regenerate Figure 15 (Cloudflare, four locations)."""

from repro.api import run_experiment


def test_bench_fig15():
    result = run_experiment("fig15", days=3)
    for row in result.rows:
        location, sep, coal, gap, paper_gap, interval, hours = row
        # Coalesced ACK-SH faster than separate SH everywhere.
        assert coal < sep, location
        # Median IACK->SH gap near the paper's 2.1-2.6 ms.
        assert 1.2 <= gap <= 3.5, location
    rows = result.row_map()
    # Hong Kong shows measurement gaps (maintenance outages).
    assert rows["Hong Kong"][6] < rows["Hamburg"][6]
