"""Regenerate Table 1 (CDN IACK deployment)."""

from repro.api import run_experiment


def test_bench_table1():
    result = run_experiment(
        "table1",
        list_size=50_000,
        days=2,
    )
    rows = result.row_map()
    # Shares near Table 1: Cloudflare ~99.9 %, Fastly/Meta/Microsoft 0.
    assert rows["Cloudflare"][2] > 98.0
    assert rows["Fastly"][2] == 0.0
    assert rows["Meta"][2] == 0.0
    assert rows["Microsoft"][2] == 0.0
    assert 25.0 <= rows["Amazon"][2] <= 55.0
    assert 15.0 <= rows["Others"][2] <= 30.0
    # Amazon shows the largest variation among the big CDNs.
    assert rows["Amazon"][4] > rows["Cloudflare"][4]
