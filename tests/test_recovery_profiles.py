"""Recovery-profile strategy seams: registry vocabulary, the CUBIC
controller, loss-detector variants, ack policies, scenario threading,
and cache-key identity.

The load-bearing invariants:

* the ``default`` profile is behavior-identical to the pre-lab code
  (the byte-level proof lives in ``test_golden_bundles.py``);
* scenario fingerprints for the default profile keep their historical
  13-field shape; only non-default profiles append their name.
"""

import pytest

from repro.impls import client_profile
from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.interop.scenarios import first_server_flight_tail_loss
from repro.quic.cc import (
    CC_CONTROLLERS,
    CUBIC_BETA,
    MAX_DATAGRAM,
    MINIMUM_WINDOW,
    CubicController,
    NewRenoController,
    make_controller,
)
from repro.quic.profiles import (
    DEFAULT_PROFILE,
    DEFAULT_PROFILE_NAME,
    RECOVERY_PROFILES,
    AckPolicy,
    DelayedAckPolicy,
    ImmediateAckPolicy,
    RecoveryProfile,
    get_recovery_profile,
    profile_names,
    register_profile,
)
from repro.quic.recovery import LOSS_DETECTORS, make_loss_detector
from repro.quic.server import ServerMode
from repro.runtime.cache import scenario_key

# -- registry ----------------------------------------------------------


def test_profile_vocabulary_is_stable():
    assert profile_names()[0] == DEFAULT_PROFILE_NAME
    assert set(profile_names()) == {
        "default", "cubic", "packet-only", "time-only",
        "immediate-ack", "cubic-delayed-ack",
    }


def test_default_profile_is_default_and_others_are_not():
    assert DEFAULT_PROFILE.is_default
    for name in profile_names():
        profile = get_recovery_profile(name)
        assert profile.is_default == (name == DEFAULT_PROFILE_NAME)


def test_unknown_profile_raises_with_vocabulary():
    with pytest.raises(ValueError, match="unknown recovery profile"):
        get_recovery_profile("bbr")


def test_profile_validates_strategy_names_at_construction():
    with pytest.raises(ValueError, match="unknown congestion controller"):
        RecoveryProfile(name="x", cc="bbr")
    with pytest.raises(ValueError, match="unknown loss detector"):
        RecoveryProfile(name="x", loss_detector="oracle")
    with pytest.raises(ValueError, match="unknown ack policy"):
        RecoveryProfile(name="x", ack_policy="never")


def test_duplicate_profile_registration_rejected():
    with pytest.raises(ValueError, match="duplicate recovery profile"):
        register_profile(RecoveryProfile(name="cubic", cc="cubic"))


def test_profiles_are_frozen_and_hashable():
    assert len({get_recovery_profile(n) for n in profile_names()}) == len(
        RECOVERY_PROFILES
    )
    with pytest.raises(Exception):
        DEFAULT_PROFILE.cc = "cubic"


# -- congestion controllers --------------------------------------------


def test_make_controller_registry_round_trip():
    assert set(CC_CONTROLLERS) == {"newreno", "cubic"}
    assert isinstance(make_controller("newreno"), NewRenoController)
    assert isinstance(make_controller("cubic"), CubicController)
    with pytest.raises(ValueError, match="unknown congestion controller"):
        make_controller("bbr")


def test_cubic_slow_start_matches_newreno():
    reno, cubic = NewRenoController(), CubicController()
    for cc in (reno, cubic):
        cc.on_packet_sent(MAX_DATAGRAM)
        cc.on_packet_acked(MAX_DATAGRAM, time_sent_ms=1.0, now_ms=2.0)
    assert cubic.cwnd == reno.cwnd
    assert cubic.in_slow_start()


def test_cubic_loss_applies_beta_and_floor():
    cc = CubicController()
    before = cc.cwnd
    cc.on_packet_sent(MAX_DATAGRAM)
    cc.on_packets_lost(MAX_DATAGRAM, latest_sent_ms=5.0, now_ms=10.0)
    assert cc.cwnd == int(before * CUBIC_BETA)
    assert cc.ssthresh == cc.cwnd
    assert cc.loss_events == 1
    # Repeated losses bottom out at the minimum window.
    for i in range(40):
        cc.recovery_start_time_ms = None  # force a new episode
        cc.on_packets_lost(0, latest_sent_ms=20.0 + i, now_ms=30.0 + i)
    assert cc.cwnd == MINIMUM_WINDOW


def test_cubic_congestion_avoidance_grows_at_least_reno():
    """Past the epoch point the cubic curve is convex: per-ack growth
    must never fall below the Reno additive step."""
    cc = CubicController()
    cc.on_packets_lost(0, latest_sent_ms=0.0, now_ms=100.0)  # leave slow start
    last = cc.cwnd
    for ack in range(200):
        now = 200.0 + ack * 10.0
        cc.on_packet_sent(MAX_DATAGRAM)
        cc.on_packet_acked(MAX_DATAGRAM, time_sent_ms=now - 5.0, now_ms=now)
        assert cc.cwnd >= last
        last = cc.cwnd
    assert cc.cwnd > int(cc.ssthresh * 1.05)  # actually grew past W_max·β


def test_cubic_is_deterministic():
    def run():
        cc = CubicController()
        cc.on_packets_lost(0, latest_sent_ms=0.0, now_ms=50.0)
        trace = []
        for ack in range(50):
            now = 100.0 + ack * 7.0
            cc.on_packet_sent(MAX_DATAGRAM)
            cc.on_packet_acked(MAX_DATAGRAM, time_sent_ms=now - 3.0, now_ms=now)
            trace.append(cc.cwnd)
        return trace

    assert run() == run()


# -- loss detectors ----------------------------------------------------


def _classify(name, **kwargs):
    base = dict(
        packet_number=1, time_sent_ms=0.0, largest_acked=2, now_ms=10.0,
        loss_delay_ms=100.0, packet_threshold=3,
    )
    base.update(kwargs)
    return make_loss_detector(name).classify(**base)


def test_loss_detector_registry():
    assert set(LOSS_DETECTORS) == {"rfc9002", "packet", "time"}
    with pytest.raises(ValueError, match="unknown loss detector"):
        make_loss_detector("oracle")


def test_rfc9002_detector_uses_both_thresholds():
    # Packet threshold crossed: lost regardless of time.
    assert _classify("rfc9002", largest_acked=4) == (True, None)
    # Time threshold crossed: lost.
    assert _classify("rfc9002", now_ms=200.0) == (True, None)
    # Neither: survives with a loss-time candidate for the timer.
    lost, candidate = _classify("rfc9002")
    assert not lost and candidate == 100.0


def test_packet_detector_never_arms_the_loss_timer():
    assert _classify("packet", largest_acked=4) == (True, None)
    # Ancient by time, but under the packet threshold: NOT lost, and no
    # candidate either — the tail is the PTO's problem.
    assert _classify("packet", now_ms=1e6) == (False, None)


def test_time_detector_ignores_packet_gaps():
    assert _classify("time", largest_acked=1000) == (False, 100.0)
    assert _classify("time", now_ms=200.0) == (True, None)


def test_time_condition_matches_timer_trigger_at_float_boundary():
    """The loss declaration must use the timer's exact float
    expression; a candidate one ulp below ``now`` that stays unlost
    would re-arm the timer at the same instant forever."""
    now = 81.58450000000001
    sent = now - 100.0  # sent + 100.0 rounds to one ulp off `now`
    for name in ("rfc9002", "time"):
        lost, candidate = _classify(
            name, time_sent_ms=sent, now_ms=now, loss_delay_ms=100.0,
            largest_acked=2,
        )
        assert lost, f"{name}: boundary candidate must be declared lost"
        assert candidate is None


# -- ack policies ------------------------------------------------------


def test_ack_policies_override_impl_profile_cadence():
    impl = client_profile("quic-go")
    assert AckPolicy().ack_every_n(impl) == impl.ack_every_n
    assert ImmediateAckPolicy().ack_every_n(impl) == 1
    assert ImmediateAckPolicy().max_ack_delay_ms(impl) == 0.0
    delayed = DelayedAckPolicy(every_n=4, max_delay_ms=5.0)
    assert delayed.ack_every_n(impl) == 4
    assert delayed.max_ack_delay_ms(impl) == 5.0
    with pytest.raises(ValueError):
        DelayedAckPolicy(every_n=0)


def test_profile_make_ack_policy_dispatch():
    assert isinstance(
        get_recovery_profile("immediate-ack").make_ack_policy(),
        ImmediateAckPolicy,
    )
    policy = get_recovery_profile("cubic-delayed-ack").make_ack_policy()
    assert isinstance(policy, DelayedAckPolicy)
    assert policy.every_n == 10
    assert type(DEFAULT_PROFILE.make_ack_policy()) is AckPolicy


# -- scenario threading and cache identity -----------------------------

LOSSY_WFC = dict(
    client="quic-go", mode=ServerMode.WFC, http="h1", rtt_ms=9.0,
    response_size=SIZE_10KB,
    server_to_client_loss=first_server_flight_tail_loss(ServerMode.WFC),
)


def test_runner_resolves_profile_and_run_completes():
    runner = Runner()
    for name in profile_names():
        scenario = Scenario(recovery_profile=name, **LOSSY_WFC)
        result = runner.run_once(scenario, seed=1)
        assert result.client_stats.handshake_complete_ms is not None, name
        assert result.completed, name


def test_runner_rejects_unknown_profile():
    with pytest.raises(ValueError, match="unknown recovery profile"):
        Runner().run_once(Scenario(recovery_profile="bbr", **LOSSY_WFC), seed=0)


def test_describe_mentions_profile_only_when_non_default():
    assert "profile=" not in Scenario(**LOSSY_WFC).describe()
    described = Scenario(recovery_profile="cubic", **LOSSY_WFC).describe()
    assert "profile=cubic" in described


def test_scenario_key_keeps_historical_shape_for_default():
    """Pre-refactor disk caches keyed a 13-field fingerprint; the
    default profile must keep producing exactly that shape."""
    default_key = scenario_key(Scenario(**LOSSY_WFC))
    assert len(default_key) == 13
    assert "default" not in default_key
    cubic_key = scenario_key(Scenario(recovery_profile="cubic", **LOSSY_WFC))
    assert cubic_key == default_key + ("cubic",)


def test_distinct_profiles_key_distinctly():
    keys = {
        scenario_key(Scenario(recovery_profile=name, **LOSSY_WFC))
        for name in profile_names()
    }
    assert len(keys) == len(profile_names())


def test_profiles_change_behavior_only_when_non_default():
    """Sanity: the lab axes actually move the simulation — CUBIC and
    immediate-ack runs are deterministic but not behavior-identical to
    the default on a lossy transfer."""
    runner = Runner()
    base = runner.run_once(Scenario(**LOSSY_WFC), seed=3)
    again = runner.run_once(Scenario(**LOSSY_WFC), seed=3)
    assert base.client_stats == again.client_stats  # deterministic
    immediate = runner.run_once(
        Scenario(recovery_profile="immediate-ack", **LOSSY_WFC), seed=3
    )
    assert immediate.client_stats != base.client_stats
