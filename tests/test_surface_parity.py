"""Surface parity: one selection through every public way in.

``Session.run`` → ``SuiteRunner.run`` is the only code that plans,
executes and aggregates an experiment; the CLI, the one-call helpers
and the daemon are clients of it. This is the check that they really
are: the same request through each surface must write byte-identical
bundle directories, and a bad override must be refused with the same
typed error everywhere — "the CLI resolves it, the other surface
doesn't" is the bug class a second run path invites.

The same holds for the other traffic: one ``ScanRequest`` through
``Session.scan`` (in-process, pool, fleet), ``repro scan`` and the HTTP
``{"scan": ...}`` job must render byte-equal ``scan.json``, cold or
warm, uninterrupted or killed and started again on the same cache —
suites and scans share one work loop and one store, and this is the net
under it.

Since PR 20 the wild measurements are on the same rail: the six wild
experiments plan their scan and study passes as cells, so one wild
selection has to reproduce ``tests/golden/smoke/`` through every
surface too, cold or warm, and killed then started again at another
width.
"""

import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.api
from repro.api import (
    InvalidOverride,
    LocalConfig,
    RunRequest,
    ServiceClient,
    Session,
    write_bundle,
)
from repro.service import ServiceDaemon, ServiceManager
from repro.wild.stream import ScanRequest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A matrix experiment with an override, a model experiment with no
#: cells, and a recovery-lab sweep on a non-default RecoveryProfile.
SELECTION = ("fig6", "table5", "lab_cc")
OVERRIDES = {"fig6": {"rtt_ms": 50}}
REQUEST = RunRequest(SELECTION, overrides=OVERRIDES, smoke=True)

#: What ``repro scan --source synthetic --targets 6000 --seed 3
#: --shard-size 1000 --vantage Hamburg`` asks for (the CLI seeds the
#: toplist and the probes with the one ``--seed``).
SCAN = ScanRequest(
    source={"kind": "synthetic", "seed": 3, "count": 6000},
    shard_size=1000,
    vantage_names=("Hamburg",),
    days=1,
    seed=3,
)
SCAN_FLAGS = (
    "--source", "synthetic", "--targets", "6000", "--seed", "3",
    "--shard-size", "1000", "--vantage", "Hamburg",
)

#: (experiment, --param text, overrides): a well-shaped value the
#: experiment cannot plan with, a string where numbers belong, a value
#: outside a Scenario field's declared range, and the wild experiments'
#: declared ranges (these five used to die inside the aggregator, or
#: exit 0 with an empty-looking table).
INVALID = [
    ("fig6", "fig6.repetitions=0", {"fig6": {"repetitions": 0}}),
    ("fig12", "fig12.rtts_ms=nan", {"fig12": {"rtts_ms": "nan"}}),
    ("fig6", "fig6.rtt_ms=-5", {"fig6": {"rtt_ms": -5}}),
    ("table1", "table1.list_size=-5", {"table1": {"list_size": -5}}),
    ("fig14", "fig14.list_size=0", {"fig14": {"list_size": 0}}),
    ("table1", "table1.days=0", {"table1": {"days": 0}}),
    ("fig9", "fig9.days=-1", {"fig9": {"days": -1}}),
    ("table1", "table1.vantage_names=Atlantis", {"table1": {"vantage_names": "Atlantis"}}),
    # An unknown or non-string scan engine used to reach the scanner (a
    # ValueError traceback after the other experiments' cells had run).
    ("table1", "table1.engine=bogus", {"table1": {"engine": "bogus"}}),
    ("fig8", "fig8.engine=bogus", {"fig8": {"engine": "bogus"}}),
    ("fig10", "fig10.engine=3", {"fig10": {"engine": 3}}),
    ("fig14", "fig14.engine=[\"batch\"]", {"fig14": {"engine": ["batch"]}}),
    # Removed with the aggregator-side fan-out: no longer parameters.
    ("table1", "table1.streamed=true", {"table1": {"streamed": True}}),
    ("fig15", "fig15.workers=2", {"fig15": {"workers": 2}}),
]


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture()
def client():
    manager = ServiceManager(pool=1)
    daemon = ServiceDaemon(manager, host="127.0.0.1", port=0)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert daemon.wait_started(timeout=10)
    yield ServiceClient(daemon.address)
    daemon.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()
    manager.close()


def bundle_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def test_four_surfaces_write_byte_identical_bundles(tmp_path, client):
    done = run_cli(
        "run", *SELECTION, "--smoke", "--param", "fig6.rtt_ms=50",
        "--out", str(tmp_path / "cli"),
    )
    assert done.returncode == 0, done.stderr

    with Session() as session:
        write_bundle(session.run(REQUEST), tmp_path / "session")

    repro.api.run(SELECTION, overrides=OVERRIDES, smoke=True, out=tmp_path / "run")

    handle = client.submit(REQUEST)
    handle.result(timeout=300)
    client.fetch_to(handle.job_id, tmp_path / "daemon")

    reference = bundle_bytes(tmp_path / "session")
    assert set(reference) == {f"{exp}.json" for exp in SELECTION} | {"suite.json"}
    assert b"@50ms RTT" in reference["fig6.json"]  # the override took
    for surface in ("cli", "run", "daemon"):
        assert bundle_bytes(tmp_path / surface) == reference, surface


@pytest.mark.parametrize("experiment, param, overrides", INVALID)
def test_invalid_override_is_refused_on_every_surface(experiment, param, overrides, client):
    done = run_cli("run", experiment, "--smoke", "--param", param)
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.strip().splitlines() == [done.stderr.strip()]  # one line
    assert experiment in done.stderr

    request = RunRequest((experiment,), overrides=overrides, smoke=True)
    with Session() as session:
        with pytest.raises(InvalidOverride, match=experiment):
            session.run(request)
        with pytest.raises(InvalidOverride, match=experiment):
            # Refused at submission, or by the job before any cell ran.
            session.submit(request).result(timeout=60)

    with pytest.raises(InvalidOverride, match=experiment):
        repro.api.run((experiment,), overrides=overrides, smoke=True)

    with pytest.raises(InvalidOverride, match=experiment):
        # HTTP 400 at submission, or a failed job of that error type.
        client.submit(request).result(timeout=60)


def test_request_key_from_another_version_is_refused_over_http(client):
    """A stale client still sending the removed ``engine`` choice gets
    HTTP 400, not a job that runs as if it had not asked."""
    conn = http.client.HTTPConnection(*client.target, timeout=30)
    try:
        body = json.dumps({"experiments": ["fig6"], "smoke": True, "engine": "batch"})
        conn.request("POST", "/v1/jobs", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        doc = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert doc["kind"] == "InvalidOverride"
    assert "engine" in doc["error"]
    assert client.jobs() == []


# -- the other traffic: scan jobs ----------------------------------------


def test_every_scan_surface_renders_byte_identical_summaries(tmp_path, client):
    from test_observe import fleet_session

    with Session() as session:  # in-process: no pool at all
        reference = session.scan(SCAN)
    assert reference.executed_shards == reference.total_shards == 6
    expected = reference.to_json()

    with Session(LocalConfig(workers=2)) as session:
        assert session.scan(SCAN).to_json() == expected
    with fleet_session(workers=2) as session:
        assert session.scan(SCAN.to_dict()).to_json() == expected

    done = run_cli("scan", *SCAN_FLAGS, "--out", str(tmp_path / "scan.json"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "scan.json").read_text() == expected

    handle = client.submit({"scan": SCAN.to_dict()})
    assert handle.result(timeout=300) == {"scan.json": expected}


def test_cold_warm_and_resumed_scans_render_the_same_bytes(tmp_path, monkeypatch):
    with Session() as session:
        expected = session.scan(SCAN).to_json()

    cache_dir = str(tmp_path / "cache")
    with Session(LocalConfig(workers=2), cache_dir=cache_dir) as session:
        cold = session.scan(SCAN)
    with Session(cache_dir=cache_dir) as session:  # another session, another backend
        warm = session.scan(SCAN)
    assert (cold.executed_shards, cold.cached_shards) == (6, 0)
    assert (warm.executed_shards, warm.cached_shards) == (0, 6)
    assert cold.to_json() == warm.to_json() == expected

    # Killed mid-scan: the second window's dispatch never happens.
    crash_dir = str(tmp_path / "crash")
    with Session(LocalConfig(workers=2), cache_dir=crash_dir) as session:
        real_run_cells = session._backend.run_cells
        calls = []

        def dying_run_cells(cells):
            if calls:
                raise RuntimeError("coordinator killed")
            calls.append(len(cells))
            return real_run_cells(cells)

        monkeypatch.setattr(session._backend, "run_cells", dying_run_cells)
        with pytest.raises(RuntimeError, match="coordinator killed"):
            session.scan(SCAN)  # a window of 2 x 2 workers
    with Session(cache_dir=crash_dir) as session:
        restarted = session.scan(SCAN)
    assert (restarted.cached_shards, restarted.executed_shards) == (4, 2)
    assert restarted.to_json() == expected


# -- the wild measurements, on the same rail ------------------------------

WILD = ("fig8", "fig9", "fig10", "fig14", "fig15", "table1")
WILD_REQUEST = RunRequest(WILD, smoke=True)
GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "smoke"


def assert_wild_golden(files):
    for experiment in WILD:
        name = f"{experiment}.json"
        assert files[name] == (GOLDEN_DIR / name).read_bytes(), name


def test_the_wild_selection_plans_its_shared_passes_once():
    with Session() as session:
        smoke, paper = session.plan(WILD_REQUEST), session.plan(RunRequest(WILD))
    assert (smoke.total_cells, len(smoke.unique_cells)) == (12, 8)
    assert (paper.total_cells, len(paper.unique_cells)) == (19, 16)
    slots = {p.spec.id: p.slots for p in paper.experiments}
    # Table 1, Fig. 8 and Fig. 10 read one Sao Paulo scan (table1 scans
    # its vantages in sorted order, two days each: Sao Paulo day 0 is
    # its seventh pass); Fig. 9 is the Sao Paulo panel of Fig. 15.
    assert slots["fig8"] == slots["fig10"] == (slots["table1"][6],)
    assert slots["fig9"] == (slots["fig15"][3],)
    assert not set(slots["fig14"]) & set(slots["table1"])  # 50k- vs 100k-domain lists
    shared = paper.dispatch_cells[slots["fig8"][0]].scenario
    assert [exp_id for exp_id, _ in shared.observers] == ["fig8", "fig10", "table1"]


def test_every_surface_renders_the_wild_selection_as_the_golden_bytes(tmp_path, client):
    from test_observe import fleet_session

    sessions = {
        "in-process": Session,
        "pool": lambda: Session(LocalConfig(workers=2)),
        "fleet": lambda: fleet_session(workers=2),
    }
    for surface, open_session in sessions.items():
        with open_session() as session:
            write_bundle(session.run(WILD_REQUEST), tmp_path / surface)
            if surface == "fleet":  # the passes crossed the wire, one per chunk
                assert session.backend_stats.chunks_dispatched >= 8

    done = run_cli("run", *WILD, "--smoke", "--out", str(tmp_path / "cli"))
    assert done.returncode == 0, done.stderr

    handle = client.submit(WILD_REQUEST)
    handle.result(timeout=300)
    client.fetch_to(handle.job_id, tmp_path / "daemon")

    reference = bundle_bytes(tmp_path / "in-process")
    assert_wild_golden(reference)
    for surface in ("pool", "fleet", "cli", "daemon"):
        assert bundle_bytes(tmp_path / surface) == reference, surface


def test_wild_passes_cold_warm_and_killed_then_resumed_at_another_width(tmp_path, monkeypatch):
    from repro.runtime.artifacts import ObservedCell
    from repro.runtime.backend import LocalBackend

    cache_dir = str(tmp_path / "cache")
    with Session(LocalConfig(workers=2), cache_dir=cache_dir) as session:
        cold = session.run(WILD_REQUEST)
    assert (cold.extra["disk_cache_hits"], cold.extra["disk_cache_misses"]) == (0, 8)

    executed = []
    real_execute = ObservedCell.execute_task

    def counting_execute(self, seed, level, runner=None):
        executed.append(self.scenario)
        return real_execute(self, seed, level, runner)

    monkeypatch.setattr(ObservedCell, "execute_task", counting_execute)
    with Session(cache_dir=cache_dir) as session:  # in-process: a pass would run here
        warm = session.run(WILD_REQUEST)
    assert (warm.extra["disk_cache_hits"], warm.extra["disk_cache_misses"]) == (8, 0)
    assert executed == []
    for report in (cold, warm):
        write_bundle(report, tmp_path / "out")
        assert_wild_golden(bundle_bytes(tmp_path / "out"))

    # Killed mid-passes: serially, each pass is stored as it ends.
    crash_dir = str(tmp_path / "crash")
    real_observe = LocalBackend.observe_results
    batches = []

    def die_on_the_fourth_pass(self, results):
        batches.append(results)
        if len(batches) == 4:
            raise KeyboardInterrupt("killed mid-passes")
        real_observe(self, results)

    monkeypatch.setattr(LocalBackend, "observe_results", die_on_the_fourth_pass)
    with Session(LocalConfig(workers=0), cache_dir=crash_dir) as session:
        with pytest.raises(KeyboardInterrupt):
            session.run(WILD_REQUEST)
    monkeypatch.setattr(LocalBackend, "observe_results", real_observe)
    assert len(executed) == 4  # the fourth ran, it was never stored

    events = []
    with Session(LocalConfig(workers=2), cache_dir=crash_dir) as session:
        resumed = session.run(WILD_REQUEST, on_event=events.append)
    assert (resumed.extra["disk_cache_hits"], resumed.extra["disk_cache_misses"]) == (3, 5)
    dispatched = [event for event in events if event.kind == "chunk_dispatched"]
    assert [event.cells for event in dispatched] == [1] * 5
    write_bundle(resumed, tmp_path / "resumed")
    assert_wild_golden(bundle_bytes(tmp_path / "resumed"))
