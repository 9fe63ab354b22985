"""Crash recovery is a warm cache: the result store records each cell
as its batch arrives, so a run killed mid-way and started again on the
same ``cache_dir`` is served every cell that was stored, executes only
the rest, and writes a bundle byte-identical to an uninterrupted run's
— down to a SIGKILLed ``repro run --cache-dir`` coordinator."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_observe import fleet_session

import repro.runtime.suite as suite_module
from repro.api import LocalConfig, RunRequest, Session
from repro.api.bundles import bundle_files
from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.suite import SuiteRunner
from repro.wild.stream import ScanRequest, StreamCoordinator

REPO_ROOT = Path(__file__).resolve().parent.parent


def blobs(cache_dir):
    return sorted(Path(cache_dir).glob("objects/*/*.blob"))


# -- the store after a crash ---------------------------------------------


def test_tmp_leftovers_from_a_crashed_write_are_ignored(tmp_path):
    """A writer killed between open and ``os.replace`` leaves a temp
    file beside the entries; it is neither an entry nor a hit."""
    request = RunRequest(("fig6",), smoke=True)
    with Session(cache_dir=str(tmp_path)) as session:
        stored = session.run(request).extra["disk_cache_misses"]
    cache = DiskResultCache(str(tmp_path))
    torn = cache.fingerprint(Scenario(rtt_ms=77.0), 0, ArtifactLevel.STATS)
    entry = Path(cache._path(torn))
    entry.parent.mkdir(exist_ok=True)
    (entry.parent / f"{entry.name}.4242.4242.tmp").write_bytes(b"torn write")
    assert len(cache) == stored
    assert cache.get(torn) is None
    with Session(cache_dir=cache) as session:
        warm = session.run(request)
    assert (warm.extra["disk_cache_hits"], warm.extra["disk_cache_misses"]) == (stored, 0)


def test_resumed_session_replays_checkpoint_without_recompute(tmp_path):
    """Started again on its own store, a finished run is all hits and
    writes nothing; a store written under another plan serves the cells
    it shares and executes the rest (fig6 is fig12's 9 ms column)."""
    cache_dir = str(tmp_path / "cache")
    request = RunRequest(("fig6",), smoke=True)
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        first = session.run(request)
    assert len(blobs(cache_dir)) == first.extra["disk_cache_misses"] == 32
    mtimes = {p: p.stat().st_mtime_ns for p in blobs(cache_dir)}
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        second = session.run(request)
    assert (second.extra["disk_cache_hits"], second.extra["disk_cache_misses"]) == (32, 0)
    assert {p: p.stat().st_mtime_ns for p in blobs(cache_dir)} == mtimes
    assert second.to_dict() == first.to_dict()

    wider = RunRequest(("fig6", "fig12"), smoke=True)
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        shared = session.run(wider)
    assert (shared.extra["disk_cache_hits"], shared.extra["disk_cache_misses"]) == (32, 32)
    with Session(LocalConfig(workers=0)) as session:
        assert bundle_files(shared) == bundle_files(session.run(wider))


def test_a_checkpoint_changes_hands_between_sessions_of_any_width(tmp_path, monkeypatch):
    """``workers`` is no part of a cell's identity: a run killed once
    its store holds every cell and pass, started again at another
    width, local then fleet, executes nothing and writes the same
    bundle."""
    request = RunRequest(("fig6", "fig15"), smoke=True)
    with Session(LocalConfig(workers=0)) as session:
        expected = bundle_files(session.run(request))

    calls = []
    real_run_work = suite_module.run_work

    def killed_after_the_passes(backend, items, *args, **kwargs):
        real_run_work(backend, items, *args, **kwargs)
        calls.append(len(items))
        # The one call held the cells and the passes: everything is stored.
        raise KeyboardInterrupt("killed before aggregation")

    monkeypatch.setattr(suite_module, "run_work", killed_after_the_passes)
    cache_dir = str(tmp_path / "cache")
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        unique = len(session.plan(request).unique_cells)
        with pytest.raises(KeyboardInterrupt):
            session.run(request)
    assert calls == [unique]
    monkeypatch.undo()

    events = []
    with Session(LocalConfig(workers=2), cache_dir=cache_dir) as session:
        assert bundle_files(session.run(request, on_event=events.append)) == expected
    assert not [e for e in events if e.kind in ("chunk_dispatched", "cell_completed")]
    with fleet_session(workers=1) as session:
        session.disk_cache = DiskResultCache(cache_dir)
        assert bundle_files(session.run(request)) == expected
        assert session.backend_stats.chunks_dispatched == 0


def test_checkpoint_dir_with_shared_runner_rejected():
    """The checkpoint knobs are gone, not ignored: each is refused."""
    with pytest.raises(TypeError, match="checkpoint_dir"):
        SuiteRunner(checkpoint_dir="ckpt")
    with pytest.raises(TypeError):
        SuiteRunner(runner=object())
    with pytest.raises(TypeError, match="resume"):
        Session(resume="ckpt")
    scan = ScanRequest(source={"kind": "synthetic", "count": 10, "seed": 0})
    with Session() as session:
        with pytest.raises(TypeError, match="checkpoint_dir"):
            session.scan(scan, checkpoint_dir="ckpt")
        with pytest.raises(TypeError, match="checkpoint_dir"):
            StreamCoordinator(session._backend, scan, checkpoint_dir="ckpt")


# -- the acceptance criterion: SIGKILL the coordinator, start again -------


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
        stdout=subprocess.PIPE if wait else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=own_group,
    )
    if wait:
        out, _err = proc.communicate(timeout=300)
        assert proc.returncode == 0
        return out
    return proc


def test_coordinator_sigkill_then_resume_bundle_byte_identical(tmp_path):
    """Kill -9 the coordinator mid-suite, start the identical command
    again, and it is served exactly the cells stored before the kill,
    executes the rest, and writes a bundle byte-identical to an
    uninterrupted local run."""
    # enough repetitions that the suite runs for seconds, with many
    # chunks stored along the way
    selection = ["fig6", "--smoke", "--param", "fig6.repetitions=80", "--workers", "2"]
    ref_dir = tmp_path / "reference"
    run_cli(["run", *selection, "--out", str(ref_dir)], cwd=tmp_path)

    cache_dir = tmp_path / "cache"
    out_dir = tmp_path / "restarted"
    command = ["run", *selection, "--cache-dir", str(cache_dir), "--out", str(out_dir)]
    victim = run_cli(command, cwd=tmp_path, wait=False, own_group=True)
    # SIGKILL as soon as the first cell is stored (mid-suite)
    deadline = time.monotonic() + 120
    while not blobs(cache_dir) and victim.poll() is None:
        if time.monotonic() > deadline:
            pytest.fail("no cell was stored within 120s")
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
    stored = len(blobs(cache_dir))
    assert stored  # partial progress survived the kill

    out = run_cli(command, cwd=tmp_path)
    hits, misses = map(int, re.search(r"disk cache: (\d+) hit\(s\), (\d+) miss", out).groups())
    assert hits == stored and misses > 0
    for name in ("fig6.json", "suite.json"):
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()
