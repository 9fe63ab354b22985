"""Crash-safe suite checkpointing: journal format, fingerprint
binding, resume semantics, and the load-bearing guarantee — a
coordinator SIGKILLed mid-suite resumes to a bundle byte-identical to
an uninterrupted run."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import CheckpointError, LocalConfig, RunRequest, Session
from repro.runtime.checkpoint import (
    MANIFEST_NAME,
    SuiteCheckpoint,
    plan_fingerprint,
)
from repro.runtime.suite import SuiteRunner

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- SuiteCheckpoint unit behavior --------------------------------------


def test_fresh_directory_initializes_and_journals(tmp_path):
    ckpt = SuiteCheckpoint(str(tmp_path / "ckpt"))
    assert ckpt.load_or_init("fp-1", meta={"experiments": ["fig6"]}) == {}
    ckpt.record([(0, "artifact-0"), (3, "artifact-3")])
    ckpt.record([(1, "artifact-1")])
    segments = sorted(p.name for p in Path(ckpt.directory).glob("cells-*.pkl"))
    assert segments == ["cells-000001.pkl", "cells-000002.pkl"]
    # a fresh handle on the same directory replays the journal ...
    again = SuiteCheckpoint(ckpt.directory)
    assert again.load_or_init("fp-1") == {
        0: "artifact-0",
        1: "artifact-1",
        3: "artifact-3",
    }
    # ... and continues the segment numbering instead of clobbering
    again.record([(2, "artifact-2")])
    assert (Path(ckpt.directory) / "cells-000003.pkl").exists()


def test_fingerprint_mismatch_and_bad_manifest_raise(tmp_path):
    directory = tmp_path / "ckpt"
    ckpt = SuiteCheckpoint(str(directory))
    ckpt.load_or_init("fp-1")
    with pytest.raises(CheckpointError, match="different"):
        SuiteCheckpoint(str(directory)).load_or_init("fp-2")
    (directory / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(CheckpointError, match="unreadable"):
        SuiteCheckpoint(str(directory)).load_or_init("fp-1")
    (directory / MANIFEST_NAME).write_text('{"schema": 999, "fingerprint": "fp-1"}')
    with pytest.raises(CheckpointError, match="schema"):
        SuiteCheckpoint(str(directory)).load_or_init("fp-1")


def test_tmp_leftovers_from_a_crashed_write_are_ignored(tmp_path):
    ckpt = SuiteCheckpoint(str(tmp_path))
    ckpt.load_or_init("fp-1")
    ckpt.record([(0, "artifact-0")])
    (tmp_path / "cells-000002.pkl.tmp").write_bytes(b"torn write")
    assert SuiteCheckpoint(str(tmp_path)).load_or_init("fp-1") == {0: "artifact-0"}


def test_plan_fingerprint_tracks_suite_identity():
    runner = SuiteRunner()
    base = plan_fingerprint(runner.plan(["fig6"], smoke=True))
    # Captured at 523badd (before the engine axis was removed): a
    # journal written there by a scalar run still resumes.
    assert base == "a61244ba604a2318dfafca5ee446180949a3baa1d9de4846b4cfee8ea032ffe4"
    assert base == plan_fingerprint(runner.plan(["fig6"], smoke=True))
    assert base != plan_fingerprint(runner.plan(["fig6", "fig12"], smoke=True))
    assert base != plan_fingerprint(runner.plan(["fig6"], smoke=False))
    assert base != plan_fingerprint(
        runner.plan(["fig6"], overrides={"fig6": {"repetitions": 3}}, smoke=True)
    )


# -- SuiteRunner / Session integration ----------------------------------


def test_resumed_session_replays_checkpoint_without_recompute(tmp_path):
    ckpt_dir = str(tmp_path / "ckpt")
    request = RunRequest(("fig6",), smoke=True)
    with Session(LocalConfig(workers=0), resume=ckpt_dir) as session:
        first = session.run(request)
    segments = list(Path(ckpt_dir).glob("cells-*.pkl"))
    assert segments  # the run journaled its cells
    mtimes = {p: p.stat().st_mtime_ns for p in segments}
    with Session(LocalConfig(workers=0), resume=ckpt_dir) as session:
        second = session.run(request)
    # full replay: nothing recomputed, so nothing new was journaled
    assert {p: p.stat().st_mtime_ns for p in Path(ckpt_dir).glob("cells-*.pkl")} == mtimes
    assert second.to_dict() == first.to_dict()
    # the same directory refuses a different planned suite
    with Session(LocalConfig(workers=0), resume=ckpt_dir) as session:
        with pytest.raises(CheckpointError, match="different"):
            session.run(RunRequest(("fig12",), smoke=True))


def test_a_checkpoint_changes_hands_between_sessions_of_any_width(tmp_path, monkeypatch):
    """``workers`` used to be a parameter of fig14 / fig15 / table1 and
    so part of the plan fingerprint: a checkpoint taken serially was
    "a different planned suite" to a pool or a fleet. Killed once the
    journal holds cells and passes, the run resumes at another width,
    local then fleet, executes nothing and writes the same bundle."""
    import repro.runtime.suite as suite_module
    from test_observe import fleet_session

    from repro.api.bundles import bundle_files

    request = RunRequest(("fig6", "fig15"), smoke=True)
    with Session(LocalConfig(workers=0)) as session:
        expected = bundle_files(session.run(request))

    calls = []
    real_run_work = suite_module.run_work

    def killed_after_the_passes(*args, **kwargs):
        counts = real_run_work(*args, **kwargs)
        calls.append(kwargs["chunk_size"])
        if kwargs["chunk_size"] == 1:  # the passes' call: everything is journaled
            raise KeyboardInterrupt("killed before aggregation")
        return counts

    monkeypatch.setattr(suite_module, "run_work", killed_after_the_passes)
    ckpt_dir = str(tmp_path / "ckpt")
    with Session(LocalConfig(workers=0), resume=ckpt_dir) as session:
        with pytest.raises(KeyboardInterrupt):
            session.run(request)
    assert calls == [None, 1]
    monkeypatch.undo()

    events = []
    with Session(LocalConfig(workers=2), resume=ckpt_dir) as session:
        assert bundle_files(session.run(request, on_event=events.append)) == expected
    assert not [e for e in events if e.kind in ("chunk_dispatched", "cell_completed")]
    with fleet_session(workers=1) as session:
        session.resume = ckpt_dir
        assert bundle_files(session.run(request)) == expected
        assert session.backend_stats.chunks_dispatched == 0


def test_checkpoint_dir_with_shared_runner_rejected():
    from repro.runtime.matrix import MatrixRunner

    # Checkpoint journaling owns the runner's result observer, so the
    # suite creates its runner itself; there is no runner= to pass.
    with pytest.raises(TypeError):
        SuiteRunner(runner=MatrixRunner(workers=0), checkpoint_dir="ckpt")


# -- the acceptance criterion: SIGKILL the coordinator, resume ----------


def run_cli(args, cwd, wait=True, own_group=False):
    env = dict(os.environ)
    env.pop("REPRO_AUTH_KEY", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=cwd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=own_group,
    )
    if wait:
        assert proc.wait(timeout=300) == 0
    return proc


def test_coordinator_sigkill_then_resume_bundle_byte_identical(tmp_path):
    """Kill -9 the coordinator mid-suite, rerun with --resume, and the
    final bundle must be byte-identical to an uninterrupted local run."""
    # enough repetitions that the suite runs for seconds, with multiple
    # journal segments landing along the way
    selection = ["fig6", "--smoke", "--param", "fig6.repetitions=80", "--workers", "2"]
    ref_dir = tmp_path / "reference"
    run_cli(["run", *selection, "--out", str(ref_dir)], cwd=tmp_path)

    ckpt_dir = tmp_path / "ckpt"
    out_dir = tmp_path / "resumed"
    victim = run_cli(
        ["run", *selection, "--resume", str(ckpt_dir), "--out", str(out_dir)],
        cwd=tmp_path,
        wait=False,
        own_group=True,
    )
    # SIGKILL as soon as the first journal segment lands (mid-suite)
    deadline = time.monotonic() + 120
    while not list(ckpt_dir.glob("cells-*.pkl")) and victim.poll() is None:
        if time.monotonic() > deadline:
            pytest.fail("no checkpoint segment appeared within 120s")
        time.sleep(0.001)
    # The whole group: a kill of the coordinator alone orphans its two
    # pool children, which then outlive the test.
    os.killpg(victim.pid, signal.SIGKILL)
    victim.wait(timeout=60)
    assert victim.returncode == -signal.SIGKILL
    deadline = time.monotonic() + 30
    while True:
        try:
            os.killpg(victim.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "pool children outlived the coordinator"
        time.sleep(0.05)
    assert not (out_dir / "suite.json").exists()  # it really died mid-run
    journaled = list(ckpt_dir.glob("cells-*.pkl"))
    assert journaled  # partial progress survived the kill

    run_cli(
        ["run", *selection, "--resume", str(ckpt_dir), "--out", str(out_dir)],
        cwd=tmp_path,
    )
    for name in ("fig6.json", "suite.json"):
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()
