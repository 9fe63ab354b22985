"""Regenerate Figure 10 (ack delay vs RTT)."""

from repro.api import run_experiment


def test_bench_fig10():
    result = run_experiment("fig10", list_size=50_000)
    rows = result.row_map()
    # Coalesced ACK-SH mostly exceeds the RTT for Cloudflare/Meta;
    # IACK ack delays are below the RTT for Akamai and Others.
    assert rows["Cloudflare"][1] > 0.95
    assert rows["Meta"][1] > 0.95
    assert rows["Google"][1] < 0.5
    # Akamai hosts only ~27 of 50k domains, so its IACK sample is
    # small; allow wide bounds around the paper's 61 %.
    assert 0.3 <= rows["Akamai"][3] <= 1.0
    assert 0.6 <= rows["Others"][3] <= 0.95
