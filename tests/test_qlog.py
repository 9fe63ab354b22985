"""Tests for qlog events, writers, exposure policies, and analysis."""

import random

import pytest

from repro.qlog.analysis import (
    count_metric_updates,
    count_new_ack_packets,
    first_pto_from_qlog,
    first_smoothed_rtt,
    metric_series,
)
from repro.qlog.events import EventCategory, MetricsUpdated, PacketEvent
from repro.qlog.writer import ExposurePolicy, QlogWriter


def _metrics(time_ms=1.0, srtt=10.0, rttvar=5.0):
    return MetricsUpdated(
        time_ms=time_ms,
        category=EventCategory.RECOVERY,
        name="metrics_updated",
        smoothed_rtt_ms=srtt,
        rtt_variance_ms=rttvar,
        latest_rtt_ms=srtt,
        min_rtt_ms=srtt,
    )


def _packet(name="packet_sent", time_ms=0.0, pn=0, newly_acked=(), eliciting=True,
            space="initial"):
    return PacketEvent(
        time_ms=time_ms,
        category=EventCategory.TRANSPORT,
        name=name,
        packet_type="initial",
        packet_number=pn,
        space=space,
        size=1200,
        ack_eliciting=eliciting,
        newly_acked=tuple(newly_acked),
    )


def test_qualified_names():
    assert _metrics().qualified_name == "recovery:metrics_updated"
    assert _packet().qualified_name == "transport:packet_sent"


def test_writer_records_events():
    writer = QlogWriter("client")
    writer.log_packet(_packet())
    writer.log_metrics(_metrics())
    assert [event.qualified_name for event in writer.events] == [
        "transport:packet_sent",
        "recovery:metrics_updated",
    ]


def test_exposure_share_suppresses_metrics():
    policy = ExposurePolicy(metrics_exposure=0.0)
    writer = QlogWriter("client", policy, rng=random.Random(0))
    for i in range(10):
        writer.log_metrics(_metrics(time_ms=float(i), srtt=10.0 + i))
    assert count_metric_updates(writer.events) == 0
    assert writer.suppressed_metrics == 10


def test_rtt_variance_suppression():
    policy = ExposurePolicy(logs_rtt_variance=False)
    writer = QlogWriter("client", policy)
    writer.log_metrics(_metrics())
    event = metric_series(writer.events)[0]
    assert event.rtt_variance_ms is None
    assert event.smoothed_rtt_ms == 10.0


def test_consecutive_duplicate_metrics_collapse():
    writer = QlogWriter("client")
    writer.log_metrics(_metrics(time_ms=1.0))
    writer.log_metrics(_metrics(time_ms=2.0))  # same srtt/rttvar
    writer.log_metrics(_metrics(time_ms=3.0, srtt=11.0))
    assert count_metric_updates(writer.events) == 2


def test_timestamp_quantization():
    policy = ExposurePolicy(timestamp_resolution="ms")
    writer = QlogWriter("client", policy)
    writer.log_packet(_packet(time_ms=1.2345))
    assert writer.events[0].time_ms == 1.0
    coarse = ExposurePolicy(timestamp_resolution="s")
    writer2 = QlogWriter("client", coarse)
    writer2.log_packet(_packet(time_ms=1650.0))
    assert writer2.events[0].time_ms == 2000.0


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        ExposurePolicy(metrics_exposure=1.5)
    with pytest.raises(ValueError):
        ExposurePolicy(timestamp_resolution="ns")


def test_count_new_ack_packets():
    events = [
        _packet(name="packet_received", pn=0, newly_acked=(0,)),
        _packet(name="packet_received", pn=1, newly_acked=()),
        _packet(name="packet_sent", pn=2),
        _packet(name="packet_received", pn=3, newly_acked=(1, 2)),
    ]
    assert count_new_ack_packets(events) == 2


def test_first_pto_from_qlog_with_variance():
    events = [_metrics(srtt=10.0, rttvar=5.0)]
    assert first_pto_from_qlog(events) == pytest.approx(30.0)


def test_first_pto_from_qlog_without_variance_reconstructs():
    # "we calculate it from the sent and received packets instead" —
    # with one sample the reconstruction is sample/2.
    event = MetricsUpdated(
        time_ms=1.0, category=EventCategory.RECOVERY, name="metrics_updated",
        smoothed_rtt_ms=10.0, rtt_variance_ms=None,
    )
    assert first_pto_from_qlog([event]) == pytest.approx(30.0)


def test_first_pto_from_empty_qlog():
    assert first_pto_from_qlog([]) is None
    assert first_smoothed_rtt([]) is None


def test_of_type_filter():
    writer = QlogWriter("client")
    writer.log_packet(_packet())
    writer.log_metrics(_metrics())
    assert len(writer.of_type("transport:packet_sent")) == 1
    assert len(writer.of_type("recovery:metrics_updated")) == 1
    assert writer.of_type("transport:packet_received") == []
