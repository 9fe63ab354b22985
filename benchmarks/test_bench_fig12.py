"""Regenerate Figure 12 (Fig. 6 across RTTs)."""

from repro.api import run_experiment


def test_bench_fig12():
    result = run_experiment(
        "fig12",
        http="h1",
        repetitions=5,
        rtts_ms=(1.0, 9.0, 20.0, 100.0),
    )
    # IACK penalty positive at low RTTs and shrinking by 100 ms.
    by_rtt = {}
    for rtt, client, wfc, iack, penalty in result.rows:
        if client == "quic-go" and penalty is not None:
            by_rtt[rtt] = penalty
    assert by_rtt[1.0] > 100.0
    assert by_rtt[9.0] > 100.0
    assert by_rtt[100.0] < by_rtt[9.0]
