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
warm, uninterrupted or killed and resumed — suites and scans share one
work loop, and this is the net under it.
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
    ckpt_dir = str(tmp_path / "ckpt")
    with Session(LocalConfig(workers=2), resume=ckpt_dir) as session:
        real_run_cells = session._backend.run_cells
        calls = []

        def dying_run_cells(cells, level_value, chunk_size=None):
            if calls:
                raise RuntimeError("coordinator killed")
            calls.append(len(cells))
            return real_run_cells(cells, level_value, chunk_size=chunk_size)

        monkeypatch.setattr(session._backend, "run_cells", dying_run_cells)
        with pytest.raises(RuntimeError, match="coordinator killed"):
            session.scan(SCAN, window=4)
    with Session(resume=ckpt_dir) as session:
        resumed = session.scan(SCAN)
    assert (resumed.resumed_shards, resumed.executed_shards) == (4, 2)
    assert resumed.to_json() == expected
