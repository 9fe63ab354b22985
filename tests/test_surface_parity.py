"""Surface parity: one selection through every public way in.

``Session.run`` → ``SuiteRunner.run`` is the only code that plans,
executes and aggregates an experiment; the CLI, the one-call helpers
and the daemon are clients of it. This is the check that they really
are: the same request through each surface must write byte-identical
bundle directories, and a bad override must be refused with the same
typed error everywhere — "the CLI resolves it, the other surface
doesn't" is the bug class a second run path invites.
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
    RunRequest,
    ServiceClient,
    Session,
    write_bundle,
)
from repro.service import ServiceDaemon, ServiceManager

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A matrix experiment with an override, a model experiment with no
#: cells, and a recovery-lab sweep on a non-default RecoveryProfile.
SELECTION = ("fig6", "table5", "lab_cc")
OVERRIDES = {"fig6": {"rtt_ms": 50}}
REQUEST = RunRequest(SELECTION, overrides=OVERRIDES, smoke=True)

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
