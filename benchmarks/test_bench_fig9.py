"""Regenerate Figure 9 (Cloudflare week, Sao Paulo)."""

from repro.api import run_experiment


def test_bench_fig9():
    result = run_experiment("fig9", days=3)
    rows = result.row_map()
    # Coalesced ACK-SH faster than separate SH; gap ~2.1 ms; daytime
    # gaps exceed nighttime gaps.
    assert result.extra["coalesced_faster"]
    assert 1.2 <= rows["IACK->SH gap"][2] <= 3.5
    assert rows["gap (daytime)"][2] > rows["gap (night)"][2]
