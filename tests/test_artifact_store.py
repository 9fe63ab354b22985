"""Disk-streamed artifact spill: round trip, ownership, and the
lazy CellResults view."""

import os

import pytest

from repro.experiments.spec import CellResults
from repro.interop.runner import Scenario
from repro.runtime import (
    ArtifactLevel,
    ArtifactStore,
    MatrixRunner,
    SuiteRunner,
    execute_cell,
)


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


def test_run_cells_streamed_batches_and_preserves_order(tmp_path, monkeypatch):
    """A spilling suite dispatches STREAM_BATCH_CELLS cells at a time
    (peak memory is one batch) and still hands every experiment its
    cells in declared order."""
    import repro.runtime.suite as suite_module

    batches = []
    real_run_cells = MatrixRunner.run_cells

    def recording_run_cells(self, cells):
        batches.append(len(cells))
        return real_run_cells(self, cells)

    monkeypatch.setattr(MatrixRunner, "run_cells", recording_run_cells)
    monkeypatch.setattr(suite_module, "STREAM_BATCH_CELLS", 5)
    overrides = {"fig6": {"repetitions": 1}}
    spill_dir = tmp_path / "s"
    streamed = SuiteRunner(workers=0, spill="always", spill_dir=str(spill_dir)).run(
        ["fig6"], overrides=overrides
    )
    assert batches == [5, 5, 5, 1]
    assert streamed.spilled_cells == 16
    assert len(list(spill_dir.glob("cell-*.pkl"))) == 16
    batches.clear()
    in_memory = SuiteRunner(workers=0, spill="never").run(["fig6"], overrides=overrides)
    assert batches == [16]
    assert streamed.results["fig6"].to_dict() == in_memory.results["fig6"].to_dict()


def test_cell_results_mixed_entries(tmp_path):
    in_memory = _artifacts(seed=1)
    with ArtifactStore(str(tmp_path / "s")) as store:
        handle = store.put(_artifacts(seed=2))
        view = CellResults([in_memory, handle], store=store)
        assert view.spilled_count == 1
        assert [a.seed for a in view] == [1, 2]
        assert view[1].seed == 2
        # slicing loads handles too, never leaking raw entries
        assert [a.seed for a in view[0:2]] == [1, 2]
        assert view[1:2][0].client_stats == view[1].client_stats


def test_cell_results_handle_without_store_raises():
    store = ArtifactStore()
    handle = store.put(_artifacts())
    view = CellResults([handle])
    with pytest.raises(ValueError, match="store"):
        view[0]
    store.close()
