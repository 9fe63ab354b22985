"""Regenerate Figure 14 (ACK->SH delay per vantage)."""

from repro.api import run_experiment


def test_bench_fig14():
    result = run_experiment("fig14", list_size=30_000)
    # "IACK performance is similar across locations": per-CDN medians
    # within a factor of two across vantages.
    per_cdn = {}
    for vantage_name, cdn, count, med in result.rows:
        if med is not None and count >= 30:
            per_cdn.setdefault(cdn, []).append(med)
    for cdn, medians in per_cdn.items():
        if len(medians) >= 2 and min(medians) > 0:
            assert max(medians) / min(medians) < 2.0, cdn
