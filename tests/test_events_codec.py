"""The RunEvent JSON wire codec and the event-sink failure logging.

Every event type must round-trip field for field through
``event_to_dict``/``event_from_dict`` (the ``repro serve`` events
relay depends on it), unknown future kinds must be skipped rather than
fatal, and a raising sink must be logged — once — instead of silently
swallowed."""

import json
import logging

import pytest

from repro.runtime.events import (
    EVENT_TYPES,
    CellCompleted,
    ChunkCompleted,
    ChunkDispatched,
    ExperimentCompleted,
    ScanCompleted,
    ShardCompleted,
    ShardDispatched,
    SuiteCompleted,
    SuitePlanned,
    WorkerDrained,
    WorkerJoined,
    WorkerLost,
    emit,
    event_from_dict,
    event_to_dict,
)

#: One representative instance per event type — every field non-default
#: so a dropped field cannot hide behind a default value.
SAMPLES = [
    SuitePlanned(
        experiments=("fig6", "fig12"),
        total_cells=40,
        unique_cells=32,
        shared_cells=8,
        artifact_level="trace",
    ),
    ChunkDispatched(chunk_id=3, cells=16, where="worker-1"),
    ChunkCompleted(chunk_id=3, cells=16, where="worker-1"),
    ChunkCompleted(chunk_id=4, cells=8, where="local-pool"),
    CellCompleted(completed=7, total=32),
    WorkerJoined(worker_id=2, host="10.0.0.5", pid=4242),
    WorkerLost(worker_id=2, requeued_chunks=1),
    WorkerDrained(worker_id=3),
    ExperimentCompleted(experiment_id="fig6", rows=8),
    SuiteCompleted(executed_cells=32),
    ShardDispatched(shard_index=7, targets=5000, total_shards=20),
    ShardCompleted(
        shard_index=7,
        targets=5000,
        completed_shards=8,
        total_shards=20,
        source="disk_cache",
    ),
    ScanCompleted(
        targets=100_000,
        probes=30_123,
        shards=20,
        executed_shards=12,
        cached_shards=8,
    ),
]


def test_every_event_type_has_a_sample():
    assert {type(event) for event in SAMPLES} == set(EVENT_TYPES.values())


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
def test_round_trip_is_field_for_field(event):
    payload = event_to_dict(event)
    assert payload["kind"] == event.kind
    # The wire form must be pure JSON (the daemon ships it verbatim).
    decoded = event_from_dict(json.loads(json.dumps(payload)))
    assert decoded == event
    assert type(decoded) is type(event)


def test_unknown_kind_is_skipped_not_fatal():
    assert event_from_dict({"kind": "warp_drive_engaged", "speed": 9}) is None
    # ... and so is a kind this build no longer emits: an older daemon's
    # duplicate-dispatch announcement.
    removed = {"kind": "chunk_speculated", "chunk_id": 5, "cells": 4, "where": "worker-3"}
    assert event_from_dict(removed) is None
    assert event_from_dict({"no": "kind"}) is None
    assert event_from_dict("not a dict") is None
    assert event_from_dict(None) is None


def test_missing_required_field_decodes_to_none():
    payload = event_to_dict(SAMPLES[0])
    del payload["total_cells"]
    assert event_from_dict(payload) is None


def test_extra_fields_are_ignored_for_forward_compat():
    payload = event_to_dict(CellCompleted(completed=1, total=2))
    payload["brand_new_field"] = "from a newer daemon"
    assert event_from_dict(payload) == CellCompleted(completed=1, total=2)
    # ... and so is a removed one: a pre-PR 19 daemon's suite_completed.
    older = {"kind": "suite_completed", "executed_cells": 32, "spilled_cells": 0, "cache_hits": 0}
    assert event_from_dict(older) == SuiteCompleted(executed_cells=32)
    # ... and a fleet chunk_completed from a daemon whose workers still
    # reported their result cache, malformed counters included.
    for cache in (
        {"hits": 5, "misses": 3, "uncacheable": 1, "entries": 42, "bytes": 0},
        {"hits": 1, "surprise": 2},
    ):
        fleet = {"kind": "chunk_completed", "chunk_id": 4, "cells": 8, "where": "worker-2",
                 "cache": cache}
        assert event_from_dict(fleet) == ChunkCompleted(chunk_id=4, cells=8, where="worker-2")


def test_optional_chunk_cache_defaults_to_none():
    """``chunk_completed`` carries no ``cache`` field; an older
    producer's ``"cache": null`` (every pool chunk's) is ignored."""
    payload = event_to_dict(ChunkCompleted(chunk_id=1, cells=2, where="x"))
    assert "cache" not in payload
    payload["cache"] = None
    assert event_from_dict(payload) == ChunkCompleted(chunk_id=1, cells=2, where="x")


# -- sink failure logging -----------------------------------------------


def test_raising_sink_is_logged_once_and_never_propagates(caplog):
    calls = []

    def bad_sink(event):
        calls.append(event)
        raise RuntimeError("observer exploded")

    event = CellCompleted(completed=1, total=2)
    with caplog.at_level(logging.WARNING, logger="repro.runtime.events"):
        emit(bad_sink, event)  # must not raise
        emit(bad_sink, event)
        emit(bad_sink, event)
    assert len(calls) == 3  # the sink kept being offered events
    warnings = [r for r in caplog.records if "bad_sink" in r.getMessage()]
    assert len(warnings) == 1  # ...but was warned about exactly once
    assert "cell_completed" in warnings[0].getMessage()


def test_distinct_sinks_each_get_their_own_warning(caplog):
    def sink_a(event):
        raise ValueError("a")

    def sink_b(event):
        raise ValueError("b")

    event = CellCompleted(completed=1, total=2)
    with caplog.at_level(logging.WARNING, logger="repro.runtime.events"):
        emit(sink_a, event)
        emit(sink_b, event)
    messages = [r.getMessage() for r in caplog.records]
    assert any("sink_a" in m for m in messages)
    assert any("sink_b" in m for m in messages)


def test_unweakrefable_sink_still_never_raises(caplog):
    # A sink without __weakref__ (like a C-implemented bound method)
    # cannot enter the once-per-sink WeakSet; the fallback warns every
    # time, and must still never let the exception propagate.
    class Boom:
        __slots__ = ()

        def __call__(self, event):
            raise RuntimeError("boom")

    sink = Boom()
    event = CellCompleted(completed=1, total=2)
    with caplog.at_level(logging.WARNING, logger="repro.runtime.events"):
        emit(sink, event)
        emit(sink, event)
    assert len(caplog.records) == 2


def test_none_sink_is_a_no_op():
    emit(None, CellCompleted(completed=1, total=2))
