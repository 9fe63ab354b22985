"""Regenerate Table 4 (default PTO / second-flight split)."""

from repro.api import run_experiment


def test_bench_table4():
    result = run_experiment("table4", repetitions=5)
    for row in result.rows:
        client, pto, paper_pto, declared, paper_decl, observed = row
        # Registry equals the published table.
        assert pto == paper_pto, client
        assert declared == paper_decl, client
        # Emulation produced flights matching the declared split (the
        # quiche variants allow both 1 and 2 datagrams).
        expected = len(declared.split(","))
        if client == "quiche":
            assert set(observed) <= {1, 2}
        else:
            assert observed == [expected], client
