"""Tests for the interop harness."""

import pytest

from repro.interop import Runner, Scenario
from repro.interop.runner import SIZE_10KB, SIZE_10MB, profile_for
from repro.interop.scenarios import (
    first_server_flight_tail_loss,
    second_client_flight_loss,
)
from repro.quic.server import ServerMode


def test_scenario_defaults_match_paper_baseline():
    scenario = Scenario()
    assert scenario.rtt_ms == 9.0
    assert scenario.response_size == SIZE_10KB
    assert scenario.bandwidth_bps == 10_000_000
    assert SIZE_10MB == 10 * 1024 * 1024


def test_scenario_with_mode_swaps_only_mode():
    base = Scenario(client="neqo", rtt_ms=20.0)
    other = base.with_mode(ServerMode.IACK)
    assert other.mode is ServerMode.IACK
    assert other.client == "neqo"
    assert other.rtt_ms == 20.0
    assert base.mode is ServerMode.WFC


def test_scenario_describe_is_informative():
    text = Scenario(client="quiche", mode=ServerMode.IACK).describe()
    assert "quiche" in text and "IACK" in text


def test_profile_for_resolves_client():
    assert profile_for(Scenario(client="mvfst")).name == "mvfst"
    with pytest.raises(KeyError):
        profile_for(Scenario(client="nonesuch"))


@pytest.mark.parametrize("field", ["rtt_ms", "delta_t_ms", "timeout_ms", "bandwidth_bps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_scenario_refuses_non_finite_times(field, value):
    """NaN passes every ``x < 0`` range check; a run with a NaN RTT
    used to "complete" as a timeout with ``duration_ms=nan``."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Scenario(**{field: value})


def test_runner_reuses_scaffolding_only_for_the_same_scenario():
    """Back-to-back repetitions of one scenario share the resolved
    profiles; a different scenario — or a stateful loss pattern — never
    leaks from one run into the next."""
    from repro.sim.loss import RandomLoss

    runner = Runner()
    lossy = Scenario(server_to_client_loss=RandomLoss(0.2, seed=3))
    first = runner.run_once(lossy, seed=1, capture_trace=False, record_qlog=False)
    other = runner.run_once(Scenario(client="neqo"), seed=1)
    again = runner.run_once(lossy, seed=1, capture_trace=False, record_qlog=False)
    assert first.client_stats == again.client_stats
    assert first.server_stats == again.server_stats
    assert other.client.profile.name == "neqo"
    fresh = Runner().run_once(lossy, seed=1, capture_trace=False, record_qlog=False)
    assert fresh.client_stats == first.client_stats


def test_run_repetitions_validates_count():
    with pytest.raises(ValueError):
        Runner().run_repetitions(Scenario(), repetitions=0)


def test_run_result_exposes_artifacts():
    result = Runner().run_once(Scenario(), seed=0)
    assert result.completed
    assert result.tracer.records
    assert result.client_qlog.events
    assert result.server_qlog.events
    assert result.duration_ms > 0
    assert result.first_pto_ms is not None


def test_loss_scenario_builders():
    assert first_server_flight_tail_loss(ServerMode.WFC).indices == {2}
    assert first_server_flight_tail_loss(ServerMode.IACK).indices == {2, 3}
    assert second_client_flight_loss("aioquic").indices == {2, 3, 4}


def test_equal_information_loss_shifts_indices_by_iack_datagram():
    """The IACK adds one standalone datagram; equal-information loss
    therefore drops one extra index (the paper's methodology)."""
    wfc = first_server_flight_tail_loss(ServerMode.WFC)
    iack = first_server_flight_tail_loss(ServerMode.IACK)
    assert len(iack.indices) == len(wfc.indices) + 1
