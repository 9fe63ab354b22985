"""Regenerate Figure 8 (ACK->SH delay CDFs, Sao Paulo)."""

from repro.api import run_experiment


def test_bench_fig8():
    result = run_experiment("fig8", list_size=50_000)
    rows = result.row_map()
    # Medians near the paper's (3.2 / 6.4 / 20.9 / 30.3 ms) and
    # Akamai/Google significantly slower than Cloudflare.
    assert abs(rows["Cloudflare"][2] - 3.2) < 1.5
    assert rows["Akamai"][2] > rows["Amazon"][2] > rows["Cloudflare"][2]
    assert rows["Google"][2] > rows["Cloudflare"][2]
