"""The ``repro serve`` stack: ServiceManager (transport-free),
ServiceDaemon + ServiceClient over real sockets, live event relay
mid-run, and the durable-cache warm start that must survive a daemon
death with byte-identical bundles."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.api.jobs as jobs_module
from repro.api import (
    JobStatus,
    RunRequest,
    ServiceClient,
    ServiceError,
    Session,
    UnknownExperiment,
)
from repro.api.bundles import bundle_files
from repro.api.client import error_type, parse_service_address
from repro.errors import BackendError, UnknownJob
from repro.runtime.events import ChunkCompleted, SuiteCompleted, SuitePlanned
from repro.schema import BUNDLE_SCHEMA_VERSION
from repro.service import ServiceDaemon, ServiceManager

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- manager (no sockets) -----------------------------------------------


@pytest.fixture()
def manager(tmp_path):
    mgr = ServiceManager(pool=1, cache_dir=str(tmp_path / "cache"), workers=2)
    yield mgr
    mgr.close()


def _wait_terminal(manager, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = manager.status(job_id)
        if record.status.terminal:
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def test_manager_submit_runs_and_bundles(manager):
    record = manager.submit({"experiments": ["fig6"], "smoke": True})
    assert record.status in (JobStatus.QUEUED, JobStatus.RUNNING)
    record = _wait_terminal(manager, record.job_id)
    assert record.status is JobStatus.SUCCEEDED
    assert record.summary["experiments"] == ["fig6"]

    bundle = json.loads(manager.bundle(record.job_id))
    assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION
    assert set(bundle["files"]) == {"fig6.json", "suite.json"}

    with Session() as session:
        direct = session.run(RunRequest("fig6", smoke=True))
    assert bundle["files"] == bundle_files(direct)


def test_manager_rejects_bad_submissions(manager):
    with pytest.raises(UnknownExperiment):
        manager.submit({"experiments": ["not-real"], "smoke": True})
    with pytest.raises(Exception):
        manager.submit({"smoke": True})  # no experiments
    assert manager.jobs() == []  # nothing was queued


def test_manager_bundle_refuses_non_succeeded(manager):
    # Well-shaped but unplannable: passes submission, fails in the job.
    record = manager.submit(
        {"experiments": ["fig6"], "smoke": True, "overrides": {"fig6": {"repetitions": 0}}}
    )
    record = _wait_terminal(manager, record.job_id)
    assert record.status is JobStatus.FAILED
    with pytest.raises(ServiceError):
        manager.bundle(record.job_id)


def test_manager_health_reports_cache_and_pool(manager, tmp_path):
    health = manager.health()
    assert health["status"] == "ok"
    assert health["pool"] == 1
    assert health["cache_dir"] == str(tmp_path / "cache")
    assert health["jobs"] == {
        "queued": 0,
        "running": 0,
        "succeeded": 0,
        "failed": 0,
        "cancelled": 0,
    }
    assert health["uptime_s"] >= 0


def test_manager_rejects_empty_pool(tmp_path):
    with pytest.raises(ServiceError):
        ServiceManager(pool=0)


# -- daemon + client over sockets ---------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    mgr = ServiceManager(pool=1, cache_dir=str(tmp_path / "cache"), workers=2)
    server = ServiceDaemon(mgr, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_started(timeout=10)
    yield server
    server.stop()
    thread.join(timeout=10)
    mgr.close()


def test_client_health_and_unknown_job(daemon):
    client = ServiceClient(daemon.address)
    health = client.health()
    assert health["status"] == "ok"
    with pytest.raises(ServiceError):
        client.status("job-doesnotexist")
    with pytest.raises(ServiceError):
        client.fetch("job-doesnotexist")


@pytest.mark.parametrize("job_id", ["", "a/b", "fetch/", "job 1", "job-1\r\nX: y", None])
def test_a_job_id_that_is_not_one_path_segment_is_refused_before_any_request(job_id):
    """An empty id used to collapse the path onto another route:
    ``fetch("")`` answered ``unknown job 'fetch'`` and ``status("")``
    got the job listing (a ``TypeError`` in the client)."""
    client = ServiceClient("127.0.0.1:9")  # nothing listens: no request may be attempted
    for call in (client.status, client.fetch, client.cancel, lambda j: list(client.events(j))):
        with pytest.raises(ServiceError, match="invalid job id"):
            call(job_id)


@pytest.mark.parametrize("verb", ["status", "watch", "fetch", "cancel"])
def test_cli_refuses_an_empty_job_id_in_one_line(verb):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    extra = ["--out", "unused"] if verb == "fetch" else []
    done = subprocess.run(
        [sys.executable, "-m", "repro", verb, "", "--service", "127.0.0.1:9", *extra],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == ServiceError.exit_code, done.stderr
    assert "invalid job id ''" in done.stderr and "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("path", ["/v1/jobs//fetch", "/v1/jobs//cancel", "/v1/jobs/%20/events"])
def test_router_answers_an_empty_job_id_with_a_typed_4xx(daemon, path):
    host, port = daemon.address.rsplit(":", 1)
    method = "POST" if path.endswith("cancel") else "GET"
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode())
        head, _, body = sock.makefile("rb").read().partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    doc = json.loads(body)
    assert doc["kind"] == "ServiceError" and "invalid job id" in doc["error"]


class _Report:
    """The least a job may return for the daemon to hold it."""

    def accounting(self):
        return {}

    def to_json(self):
        return "{}"


def test_an_evicted_job_is_unknown_on_every_route(tmp_path, monkeypatch):
    """Once ``FINISHED_JOBS_KEPT`` newer jobs have finished, the first
    id is gone from the table: 404 ``UnknownJob`` on all four routes,
    the same type from the client, and ``ServiceError``'s exit code
    from the CLI."""
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 2)
    monkeypatch.setattr(ServiceManager, "_run_job", lambda self, request, sink: _Report())
    mgr = ServiceManager(workers=0)
    server = ServiceDaemon(mgr, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        client = ServiceClient(server.wait_started(10))
        ids = [client.submit(RunRequest("fig6", smoke=True)).job_id for _ in range(3)]
        assert all(client.wait(job_id, timeout=30).status.terminal for job_id in ids[1:])
        assert [record.job_id for record in client.jobs()] == ids[1:]
        assert client.health()["jobs"]["succeeded"] == 3
        first = ids[0]

        host, port = server.address.rsplit(":", 1)
        routes = [("GET", ""), ("GET", "/events"), ("GET", "/fetch"), ("POST", "/cancel")]
        for method, action in routes:
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(
                    f"{method} /v1/jobs/{first}{action} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                head, _, body = sock.makefile("rb").read().partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 404 "), (method, action, head)
            doc = json.loads(body)
            assert doc["kind"] == "UnknownJob" and first in doc["error"], (method, action)

        for call in (client.status, client.fetch, client.cancel, lambda j: list(client.events(j))):
            with pytest.raises(UnknownJob):
                call(first)
        assert client.fetch(ids[-1]) == {"scan.json": "{}"}

        done = subprocess.run(
            [sys.executable, "-m", "repro", "status", first, "--service", server.address],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == ServiceError.exit_code == UnknownJob.exit_code, done.stderr
        assert f"unknown job '{first}'" in done.stderr and "Traceback" not in done.stderr
    finally:
        server.stop()
        thread.join(timeout=10)
        mgr.close()


def test_client_submit_streams_events_and_fetches_byte_identical(daemon):
    client = ServiceClient(daemon.address)
    record = client.submit(RunRequest("fig6", smoke=True))
    job_id = record.job_id

    # The event stream is consumed while the job runs — a live relay,
    # not a post-hoc dump. It must carry the planned/chunk/completed
    # trio end to end.
    events = list(client.events(job_id))
    kinds = {type(event) for event in events}
    assert SuitePlanned in kinds
    assert ChunkCompleted in kinds  # workers=2 → chunked dispatch
    assert SuiteCompleted in kinds

    final = client.wait(job_id, timeout=60)
    assert final.status is JobStatus.SUCCEEDED

    files = client.fetch(job_id)
    with Session() as session:
        direct = session.run(RunRequest("fig6", smoke=True))
    assert files == bundle_files(direct)


def test_client_fetch_to_writes_bundle(daemon, tmp_path):
    client = ServiceClient(daemon.address)
    record = client.submit(RunRequest("fig6", smoke=True))
    client.wait(record.job_id, timeout=60)
    out = tmp_path / "out"
    written = client.fetch_to(record.job_id, str(out))
    assert sorted(os.path.basename(p) for p in written) == [
        "fig6.json",
        "suite.json",
    ]
    doc = json.loads((out / "suite.json").read_text())
    assert doc["schema_version"] == BUNDLE_SCHEMA_VERSION


def test_client_failed_job_raises_typed_error(daemon):
    client = ServiceClient(daemon.address)
    with pytest.raises(UnknownExperiment):
        client.submit(RunRequest("not-an-experiment", smoke=True))


def test_a_service_handle_cancels_through_the_daemon(daemon):
    handle = ServiceClient(daemon.address).submit(RunRequest("fig6", smoke=True))
    handle.result(timeout=120)
    # A finished job is not cancelled; the record answers truthfully.
    record = handle.cancel()
    assert record.job_id == handle.job_id and record.status is JobStatus.SUCCEEDED


def test_client_jobs_listing(daemon):
    client = ServiceClient(daemon.address)
    record = client.submit(RunRequest("fig6", smoke=True))
    listed = client.jobs()
    assert record.job_id in {r.job_id for r in listed}
    client.wait(record.job_id, timeout=60)


def test_warm_resubmit_is_served_from_disk_cache(daemon):
    client = ServiceClient(daemon.address)
    first = client.submit(RunRequest("fig6", smoke=True))
    cold = client.wait(first.job_id, timeout=60)
    assert cold.summary["disk_cache_misses"] > 0

    second = client.submit(RunRequest("fig6", smoke=True))
    warm = client.wait(second.job_id, timeout=60)
    assert warm.summary["disk_cache_hits"] == cold.summary["disk_cache_misses"]
    assert warm.summary["disk_cache_misses"] == 0
    assert client.fetch(second.job_id) == client.fetch(first.job_id)


def test_unix_socket_daemon(tmp_path):
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("platform has no unix sockets")
    path = str(tmp_path / "repro.sock")
    mgr = ServiceManager(pool=1, workers=2)
    server = ServiceDaemon(mgr, socket_path=path)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        assert server.wait_started(timeout=10)
        assert server.address == f"unix:{path}"
        client = ServiceClient(server.address)
        assert client.health()["status"] == "ok"
    finally:
        server.stop()
        thread.join(timeout=10)
        mgr.close()
    assert not os.path.exists(path)  # socket unlinked on shutdown


# -- client plumbing ----------------------------------------------------


def test_parse_service_address_forms():
    assert parse_service_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_service_address("127.0.0.1:8080") == ("tcp", ("127.0.0.1", 8080))
    assert parse_service_address("[::1]:8080") == ("tcp", ("::1", 8080))
    with pytest.raises(ServiceError):
        parse_service_address("no-port-here")
    with pytest.raises(ServiceError):
        parse_service_address("host:not-a-number")


def test_error_type_mapping():
    assert error_type("UnknownExperiment") is UnknownExperiment
    assert error_type("BackendError") is BackendError
    assert error_type("ValueError") is ServiceError  # not a repro error
    assert error_type("NoSuchThing") is ServiceError
    assert error_type(None) is ServiceError


def test_client_connection_refused_is_service_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here any more
    client = ServiceClient(f"127.0.0.1:{port}", timeout=2.0)
    with pytest.raises(ServiceError):
        client.health()


# -- the durable warm start survives a SIGKILL --------------------------


def test_cache_survives_daemon_sigkill_byte_identical(tmp_path):
    """The acceptance drill in miniature: kill -9 the daemon, restart
    it on the same cache directory, and the resubmitted suite must be
    served from disk (zero misses) with byte-identical bundle files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cache_dir = tmp_path / "cache"

    def start():
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "0", "--pool", "1", "--workers", "2",
                "--cache-dir", str(cache_dir),
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = proc.stdout.readline()
        match = re.search(r"service listening on (\S+)", line)
        assert match, f"daemon never announced its address: {line!r}"
        return proc, match.group(1)

    proc, address = start()
    try:
        client = ServiceClient(address)
        record = client.submit(RunRequest("fig6", smoke=True))
        cold = client.wait(record.job_id, timeout=120)
        assert cold.status is JobStatus.SUCCEEDED
        cold_files = client.fetch(record.job_id)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    proc, address = start()
    try:
        client = ServiceClient(address)
        record = client.submit(RunRequest("fig6", smoke=True))
        warm = client.wait(record.job_id, timeout=120)
        assert warm.status is JobStatus.SUCCEEDED
        assert warm.summary["disk_cache_hits"] > 0
        assert warm.summary["disk_cache_misses"] == 0
        assert client.fetch(record.job_id) == cold_files
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


# -- bearer-token auth ---------------------------------------------------


@pytest.fixture()
def authed_daemon(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
    mgr = ServiceManager(pool=1, workers=1)
    server = ServiceDaemon(mgr, host="127.0.0.1", port=0, auth_token="hunter2")
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_started(timeout=10)
    yield server
    server.stop()
    thread.join(timeout=10)
    mgr.close()


def test_unauthenticated_requests_get_401(authed_daemon):
    client = ServiceClient(authed_daemon.address)
    assert client.token is None
    with pytest.raises(ServiceError, match="bearer token"):
        client.health()
    with pytest.raises(ServiceError, match="bearer token"):
        client.submit(RunRequest("fig6", smoke=True))
    # the events stream path enforces the same gate
    with pytest.raises(ServiceError, match="bearer token"):
        next(iter(client.events("job-doesnotmatter")))


def test_wrong_token_is_rejected(authed_daemon):
    client = ServiceClient(authed_daemon.address, token="wrong")
    with pytest.raises(ServiceError, match="bearer token"):
        client.health()


def test_matching_token_passes(authed_daemon):
    client = ServiceClient(authed_daemon.address, token="hunter2")
    assert client.health()["status"] == "ok"


def test_token_defaults_from_environment(authed_daemon, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_TOKEN", "hunter2")
    client = ServiceClient(authed_daemon.address)
    assert client.token == "hunter2"
    assert client.health()["status"] == "ok"


def test_daemon_without_token_accepts_anonymous(daemon):
    assert ServiceClient(daemon.address).health()["status"] == "ok"


def test_raw_http_401_status_line(authed_daemon):
    host, port = authed_daemon.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        head = sock.makefile("rb").readline().decode("latin-1")
    assert head.startswith("HTTP/1.1 401 Unauthorized")


# -- streaming scan jobs --------------------------------------------------


SCAN_DOC = {
    "scan": {
        "source": {"kind": "synthetic", "count": 4000, "seed": 3},
        "shard_size": 1000,
        "vantage_names": ["Hamburg"],
        "days": 1,
    }
}


def test_manager_runs_scan_jobs(manager):
    record = manager.submit(SCAN_DOC)
    assert record.experiments == "scan"
    record = _wait_terminal(manager, record.job_id)
    assert record.status is JobStatus.SUCCEEDED
    assert record.summary["executed_shards"] == 4
    assert record.summary["fingerprint"]

    bundle = json.loads(manager.bundle(record.job_id))
    assert set(bundle["files"]) == {"scan.json"}
    doc = json.loads(bundle["files"]["scan.json"])
    assert doc["sketch"]["targets"] == 4000

    kinds = {event.kind for event in manager.event_buffer(record.job_id).subscribe()}
    assert {"shard_dispatched", "shard_completed", "scan_completed"} <= kinds


def test_manager_rejects_malformed_scan_jobs(manager):
    from repro.errors import InvalidOverride

    with pytest.raises(InvalidOverride):
        manager.submit({"scan": "not a dict"})
    with pytest.raises(InvalidOverride):
        manager.submit({"scan": {"source": {"kind": "carrier-pigeon"}}})
    assert manager.jobs() == []


def test_scan_job_over_the_wire_matches_local(daemon):
    client = ServiceClient(daemon.address)
    handle = client.submit(SCAN_DOC)
    files = handle.result(timeout=120)
    assert set(files) == {"scan.json"}
    with Session() as session:
        local = session.scan(SCAN_DOC["scan"])
    assert files["scan.json"] == local.to_json()
