"""Tests for RFC 9002 recovery: RTT estimation, PTO, loss detection."""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import CLIENT_ORDER
from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.quic.frames import AckFrame, CryptoFrame
from repro.quic.packet import Packet, PacketType, Space
from repro.quic.profiles import profile_names
from repro.quic.recovery import (
    GRANULARITY_MS,
    Recovery,
    RecoveryConfig,
    RttEstimator,
)
from repro.quic.server import ServerMode
from repro.sim.loss import GilbertElliottLoss


def _packet(space=Space.INITIAL, pn=0, eliciting=True):
    ptype = {
        Space.INITIAL: PacketType.INITIAL,
        Space.HANDSHAKE: PacketType.HANDSHAKE,
        Space.APPLICATION: PacketType.ONE_RTT,
    }[space]
    frames = (CryptoFrame(offset=0, length=10),) if eliciting else (
        AckFrame(ranges=((0, 0),)),
    )
    return Packet(ptype, pn, frames)


# ---------------------------------------------------------------------------
# RttEstimator
# ---------------------------------------------------------------------------

def test_first_sample_initializes_srtt_and_rttvar():
    est = RttEstimator()
    est.update(10.0)
    assert est.smoothed_rtt == 10.0
    assert est.rttvar == 5.0
    assert est.min_rtt == 10.0
    # First PTO is srtt + 4*rttvar = 3x the sample.
    assert est.pto_base_ms(999.0) == pytest.approx(30.0)


def test_no_sample_uses_default_pto():
    est = RttEstimator()
    assert est.pto_base_ms(250.0) == 250.0
    assert not est.has_sample


def test_first_sample_ignores_ack_delay():
    # "the PTO initialization disregards this delay" (§2).
    est = RttEstimator()
    est.update(20.0, ack_delay_ms=15.0)
    assert est.smoothed_rtt == 20.0


def test_subsequent_samples_subtract_ack_delay():
    est = RttEstimator()
    est.update(10.0)
    est.update(14.0, ack_delay_ms=4.0)  # adjusted to 10
    assert est.smoothed_rtt == pytest.approx(10.0)


def test_ack_delay_not_subtracted_below_min_rtt():
    est = RttEstimator()
    est.update(10.0)
    est.update(11.0, ack_delay_ms=5.0)  # 11-5=6 < min_rtt → keep 11
    assert est.latest_rtt == 11.0
    assert est.smoothed_rtt == pytest.approx(0.875 * 10 + 0.125 * 11)


def test_min_rtt_tracks_minimum():
    est = RttEstimator()
    for sample in (10.0, 8.0, 12.0):
        est.update(sample)
    assert est.min_rtt == 8.0


def test_ewma_converges_to_constant_sample():
    est = RttEstimator()
    for _ in range(200):
        est.update(10.0)
    assert est.smoothed_rtt == pytest.approx(10.0)
    assert est.rttvar == pytest.approx(0.0, abs=1e-6)
    # Converged PTO is srtt + granularity.
    assert est.pto_base_ms(999.0) == pytest.approx(10.0 + GRANULARITY_MS)


def test_aioquic_variant_differs_from_standard():
    standard = RttEstimator(variant="standard")
    aioquic = RttEstimator(variant="aioquic")
    for est in (standard, aioquic):
        est.update(10.0)
        est.update(20.0)
    assert standard.rttvar != aioquic.rttvar


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        RttEstimator(variant="bogus")


def test_misinitialization_quirk():
    est = RttEstimator(
        rng=random.Random(0), misinit_probability=1.0, misinit_srtt_ms=90.0
    )
    est.update(33.0)
    assert est.misinitialized
    assert est.smoothed_rtt == 90.0
    assert est.latest_rtt == 33.0


def test_invalid_sample_rejected():
    with pytest.raises(ValueError):
        RttEstimator().update(0.0)


@given(st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=50))
def test_estimator_invariants(samples):
    est = RttEstimator()
    for sample in samples:
        est.update(sample)
    assert est.min_rtt == pytest.approx(min(samples))
    assert est.smoothed_rtt is not None and est.smoothed_rtt > 0
    assert est.rttvar is not None and est.rttvar >= 0
    lo, hi = min(samples), max(samples)
    assert lo - 1e-9 <= est.smoothed_rtt <= hi + 1e-9


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def _recovery(**kwargs):
    return Recovery(RecoveryConfig(**kwargs), rng=random.Random(0))


def test_packet_numbers_are_per_space():
    rec = _recovery()
    assert rec.next_packet_number(Space.INITIAL) == 0
    assert rec.next_packet_number(Space.INITIAL) == 1
    assert rec.next_packet_number(Space.HANDSHAKE) == 0


def test_ack_removes_packet_and_samples_rtt():
    rec = _recovery()
    packet = _packet(pn=rec.next_packet_number(Space.INITIAL))
    rec.on_packet_sent(packet, now_ms=0.0, size=1200)
    result = rec.on_ack_received(
        Space.INITIAL, AckFrame(ranges=((0, 0),)), now_ms=12.0
    )
    assert [sp.packet_number for sp in result.newly_acked] == [0]
    assert result.rtt_sample_ms == pytest.approx(12.0)
    assert rec.estimator.smoothed_rtt == pytest.approx(12.0)


def test_duplicate_ack_is_ignored():
    rec = _recovery()
    packet = _packet(pn=rec.next_packet_number(Space.INITIAL))
    rec.on_packet_sent(packet, 0.0, 1200)
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    again = rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 20.0)
    assert again.newly_acked == []
    assert rec.estimator.samples == 1


def test_ack_of_non_eliciting_packet_gives_no_sample():
    rec = _recovery()
    packet = _packet(pn=rec.next_packet_number(Space.INITIAL), eliciting=False)
    rec.on_packet_sent(packet, 0.0, 50)
    result = rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    assert result.rtt_sample_ms is None


def test_initial_space_sample_quirk_switch():
    rec = _recovery(use_initial_ack_rtt_sample=False)
    packet = _packet(pn=rec.next_packet_number(Space.INITIAL))
    rec.on_packet_sent(packet, 0.0, 1200)
    result = rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    assert result.rtt_sample_ms is None  # picoquic ignores it
    assert not rec.estimator.has_sample


def test_packet_threshold_loss_detection():
    rec = _recovery()
    for _ in range(5):
        pn = rec.next_packet_number(Space.INITIAL)
        rec.on_packet_sent(_packet(pn=pn), 0.0, 1200)
    result = rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((4, 4),)), 10.0)
    # 4 - 3 = 1: packets 0 and 1 are lost by the packet threshold.
    lost = sorted(sp.packet_number for sp in result.lost)
    assert lost == [0, 1]


def test_time_threshold_loss_detection():
    rec = _recovery()
    pn0 = rec.next_packet_number(Space.INITIAL)
    rec.on_packet_sent(_packet(pn=pn0), 0.0, 1200)
    pn1 = rec.next_packet_number(Space.INITIAL)
    rec.on_packet_sent(_packet(pn=pn1), 100.0, 1200)
    result = rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((1, 1),)), 110.0)
    # Packet 0 was sent 110 ms ago; loss delay = 9/8 * 10 ≈ 11 ms.
    assert [sp.packet_number for sp in result.lost] == [0]


def test_spurious_retransmission_detection():
    rec = _recovery()
    for _ in range(5):
        rec.on_packet_sent(
            _packet(pn=rec.next_packet_number(Space.INITIAL)), 0.0, 1200
        )
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((4, 4),)), 10.0)
    # Packets 0/1 were declared lost; a late ACK arrives for 0.
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 11.0)
    assert rec.spurious_retransmissions == 1


def test_pto_uses_default_before_sample():
    rec = _recovery(default_pto_ms=200.0)
    assert rec.pto_for_space(Space.INITIAL) == 200.0


def test_pto_includes_max_ack_delay_only_in_app_space():
    rec = _recovery(max_ack_delay_ms=25.0)
    rec.estimator.update(10.0)
    assert rec.pto_for_space(Space.INITIAL) == pytest.approx(30.0)
    assert rec.pto_for_space(Space.APPLICATION) == pytest.approx(55.0)


def test_pto_timer_from_in_flight_packet():
    rec = _recovery(default_pto_ms=100.0)
    rec.on_packet_sent(_packet(pn=rec.next_packet_number(Space.INITIAL)), 5.0, 1200)
    deadline = rec.loss_detection_deadline(6.0)
    assert deadline is not None
    when, space, kind = deadline
    assert kind == "pto"
    assert space is Space.INITIAL
    assert when == pytest.approx(105.0)


def test_anti_deadlock_pto_is_anchored_not_sliding():
    """The anti-deadlock PTO must not be recomputed from 'now' on each
    query — the instant ACK case would never probe otherwise."""
    rec = _recovery(default_pto_ms=100.0)
    pn = rec.next_packet_number(Space.INITIAL)
    rec.on_packet_sent(_packet(pn=pn), 0.0, 1200)
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    # Nothing in flight now; client + handshake incomplete.
    first_query = rec.pto_time_and_space(11.0)
    later_query = rec.pto_time_and_space(25.0)
    assert first_query is not None and later_query is not None
    assert first_query[0] == pytest.approx(later_query[0])
    # Anchored at the ack time (10) + 3x sample (30).
    assert first_query[0] == pytest.approx(40.0)


def test_anti_deadlock_quirk_uses_default_pto_from_send_time():
    """mvfst/picoquic: probes stay on the default-PTO schedule."""
    rec = _recovery(default_pto_ms=100.0, anti_deadlock_probe_from_sent_time=True)
    pn = rec.next_packet_number(Space.INITIAL)
    rec.on_packet_sent(_packet(pn=pn), 0.0, 1200)
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    deadline = rec.pto_time_and_space(11.0)
    assert deadline is not None
    assert deadline[0] == pytest.approx(100.0)  # send time 0 + default


def test_pto_backoff_doubles():
    rec = _recovery(default_pto_ms=100.0)
    rec.on_packet_sent(_packet(pn=rec.next_packet_number(Space.INITIAL)), 0.0, 1200)
    base = rec.pto_time_and_space(1.0)[0]
    rec.on_pto_fired()
    doubled = rec.pto_time_and_space(1.0)[0]
    assert doubled - 0.0 == pytest.approx(2 * (base - 0.0))


def test_backoff_resets_on_forward_progress():
    rec = _recovery(default_pto_ms=100.0)
    rec.on_packet_sent(_packet(pn=rec.next_packet_number(Space.INITIAL)), 0.0, 1200)
    rec.on_pto_fired()
    rec.on_pto_fired()
    assert rec.pto_count == 2
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    assert rec.pto_count == 0


def test_discard_space_clears_state_and_timer():
    rec = _recovery()
    rec.on_packet_sent(_packet(pn=rec.next_packet_number(Space.INITIAL)), 0.0, 1200)
    rec.discard_space(Space.INITIAL, now_ms=5.0)
    assert rec.bytes_in_flight() == 0
    # Only the anti-deadlock timer may remain; no in-flight PTO.
    deadline = rec.loss_detection_deadline(6.0)
    assert deadline is None or deadline[1] is not Space.INITIAL


def test_sending_after_discard_raises():
    rec = _recovery()
    rec.discard_space(Space.INITIAL)
    with pytest.raises(RuntimeError):
        rec.on_packet_sent(_packet(pn=0), 0.0, 1200)


def test_bytes_in_flight_accounting():
    rec = _recovery()
    rec.on_packet_sent(_packet(pn=rec.next_packet_number(Space.INITIAL)), 0.0, 1200)
    rec.on_packet_sent(
        _packet(space=Space.HANDSHAKE, pn=rec.next_packet_number(Space.HANDSHAKE)),
        1.0,
        800,
    )
    assert rec.bytes_in_flight() == 2000
    rec.on_ack_received(Space.INITIAL, AckFrame(ranges=((0, 0),)), 10.0)
    assert rec.bytes_in_flight() == 800


def test_app_space_pto_excluded_until_handshake_complete():
    rec = _recovery()
    rec.on_packet_sent(
        _packet(space=Space.APPLICATION, pn=rec.next_packet_number(Space.APPLICATION)),
        0.0,
        500,
    )
    # Handshake incomplete: app space not eligible; anti-deadlock fires
    # for the handshake spaces instead (client).
    deadline = rec.pto_time_and_space(1.0)
    assert deadline is not None
    rec.set_handshake_complete()
    deadline = rec.pto_time_and_space(1.0)
    assert deadline[1] is Space.APPLICATION


# ---------------------------------------------------------------------------
# The order of the sent map (what on_ack_received's walk relies on)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    profile=st.sampled_from(profile_names()),
    client=st.sampled_from(CLIENT_ORDER),
    mode=st.sampled_from(list(ServerMode)),
    burst=st.tuples(
        st.floats(0.0, 0.3), st.floats(0.2, 1.0), st.floats(0.0, 0.5)
    ),
    seeds=st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
    response_size=st.sampled_from([SIZE_10KB, 1 << 16]),
)
def test_sent_stays_in_packet_number_order_under_every_profile_and_bursty_loss(
    profile, client, mode, burst, seeds, response_size
):
    """Every packet a space records is numbered above every packet it
    still holds, under each recovery profile and Gilbert-Elliott loss on
    both links: the map's insertion order is packet-number order."""
    p, r, h = burst
    scenario = Scenario(
        client=client,
        mode=mode,
        rtt_ms=20.0,
        response_size=response_size,
        client_to_server_loss=GilbertElliottLoss(p, r, h, seed=seeds[0]),
        server_to_client_loss=GilbertElliottLoss(p, r, h, seed=seeds[1]),
        recovery_profile=profile,
        timeout_ms=10_000.0,
    )
    disorder = []
    recorded = Recovery.on_packet_sent

    def checked(self, packet, *args, **kwargs):
        sent = self.spaces[packet.space].sent
        if sent and packet.packet_number <= next(reversed(sent)):
            disorder.append((packet.space, packet.packet_number, next(reversed(sent))))
        return recorded(self, packet, *args, **kwargs)

    with patch.object(Recovery, "on_packet_sent", checked):
        result = Runner().run_once(scenario, seed=0, capture_trace=False, record_qlog=False)
    assert disorder == []
    for endpoint in (result.client, result.server):
        for state in endpoint.recovery.spaces:
            assert list(state.sent) == sorted(state.sent)
