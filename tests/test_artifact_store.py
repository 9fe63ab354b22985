"""The disk artifact store (round trip, ownership, atomic writes) and
the pickle format of the retained record classes. No suite spills any
more (traces are observed in the cell that made them); the class stays
for the e2e probes."""

import os

import pytest

from repro.interop.runner import Scenario
from repro.runtime import ArtifactLevel, ArtifactStore, execute_cell


def _artifacts(level=ArtifactLevel.STATS, seed=0):
    return execute_cell(Scenario(), seed, level)


def test_put_get_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path / "spill"))
    original = _artifacts(ArtifactLevel.TRACE)
    handle = store.put(original)
    assert handle.nbytes > 0
    assert store.bytes_written == handle.nbytes
    assert len(store) == 1
    loaded = store.get(handle)
    assert loaded.seed == original.seed
    assert loaded.client_stats == original.client_stats
    assert loaded.client_qlog_events is not None
    assert len(loaded.trace_records) == len(original.trace_records)


def test_owned_tempdir_removed_on_close():
    store = ArtifactStore()
    root = store.root
    store.put(_artifacts())
    assert os.path.isdir(root)
    store.close()
    assert not os.path.exists(root)
    assert store.closed


def test_caller_supplied_root_survives_close(tmp_path):
    root = tmp_path / "keep"
    with ArtifactStore(str(root)) as store:
        store.put(_artifacts())
    assert list(root.glob("cell-*.pkl"))


def test_full_level_artifacts_rejected():
    with ArtifactStore() as store:
        with pytest.raises(ValueError, match="full"):
            store.put(_artifacts(ArtifactLevel.FULL))


def test_interrupted_put_leaves_no_truncated_cell(tmp_path):
    """A pickle that dies mid-stream (process kill, unpicklable
    attribute, full disk) must never leave a partial cell-NNNNNN.pkl
    for a later get() to unpickle as garbage: the write goes to a temp
    file and only an atomic rename publishes it."""
    import pickle as pickle_mod

    root = tmp_path / "spill"
    store = ArtifactStore(str(root))
    bad = _artifacts()
    # A few hundred KB of picklable payload followed by an unpicklable
    # tail: the dump writes real bytes, then dies mid-stream.
    bad.trace_records = [b"x" * 300_000, lambda: None]
    with pytest.raises((pickle_mod.PicklingError, AttributeError, TypeError)):
        store.put(bad)
    # No cell file, no temp leftover, no phantom accounting.
    assert list(root.iterdir()) == []
    assert len(store) == 0 and store.bytes_written == 0
    # The interrupted index is reused by the next successful put.
    good = _artifacts(seed=3)
    handle = store.put(good)
    assert handle.index == 0
    assert store.get(handle).client_stats == good.client_stats
    store.close()


def test_closed_store_rejects_io():
    store = ArtifactStore()
    handle = store.put(_artifacts())
    store.close()
    with pytest.raises(ValueError, match="closed"):
        store.put(_artifacts())
    with pytest.raises(ValueError, match="closed"):
        store.get(handle)


# -- pickle format of the retained record classes ------------------------

PARENT_CELL = os.path.join(os.path.dirname(__file__), "golden", "parent-trace-cell.pkl")


def test_cell_pickled_before_the_state_helper_loads_equal():
    """``golden/parent-trace-cell.pkl`` is ``pickle.dumps`` of the
    quic-go / IACK / 9 ms trace-level cell (seed 0) as written at
    3c78813, before the frames and ``TraceRecord`` got
    ``precomputed_state`` and ``Packet``/``Datagram`` computed their
    sizes eagerly. Spill files, disk-cache entries, journals and fleet
    frames of that vintage must keep loading — equal, derived
    attributes included."""
    import pickle

    from repro.quic.server import ServerMode

    with open(PARENT_CELL, "rb") as handle:
        old = pickle.load(handle)
    scenario = Scenario(client="quic-go", mode=ServerMode.IACK, rtt_ms=9.0)
    assert old.scenario == scenario
    new = execute_cell(scenario, 0, ArtifactLevel.TRACE)
    assert old == new  # stats, trace records (payload aside), both qlogs
    for was, now in zip(old.trace_records, new.trace_records):
        assert was.payload == now.payload and was.payload.size == now.payload.size
        for a, b in zip(was.payload.packets, now.payload.packets):
            assert (a.size, a.space, a.ack_eliciting, a.header_size(), a.payload_size()) == (
                b.size, b.space, b.ack_eliciting, b.header_size(), b.payload_size()
            )


def test_state_shapes_are_the_ones_older_readers_expect():
    """The other direction (a mixed-version fleet, a newer writer's
    disk cache read by an older process): frozen slots records pickle
    as the list of field values in field order, ``Packet`` and
    ``Datagram`` as a dict keyed by the slot names they always had."""
    from dataclasses import fields

    artifact = _artifacts(ArtifactLevel.TRACE)
    record = artifact.trace_records[0]
    assert record.__getstate__() == [getattr(record, f.name) for f in fields(record)]
    packet = record.payload.packets[0]
    for frame in packet.frames:
        assert frame.__getstate__() == [getattr(frame, f.name) for f in fields(frame)]
        clone = object.__new__(type(frame))
        clone.__setstate__(frame.__getstate__())
        assert clone == frame
    assert set(packet.__reduce_ex__(5)[2][1]) == {
        "packet_type", "packet_number", "frames", "dcid", "scid", "token", "pn_length",
        "_payload_size", "_header_size", "_ack_eliciting", "_space", "_wire_size",
    }
    assert set(record.payload.__reduce_ex__(5)[2][1]) == {
        "packets", "sender", "_size", "_contains_crypto",
    }
