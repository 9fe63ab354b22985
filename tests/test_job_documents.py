"""A malformed job document is a typed ``InvalidOverride`` before any
work: not a 500 with a traceback, and not a silent coercion that runs
something the sender did not ask for (``"2.7"`` shards, the vantages
``'H'``, ``'a'``, … of ``"Hamburg"``, a smoke run of ``"false"``)."""

import json
import socket
import threading

import pytest

from repro.api import Session
from repro.errors import InvalidOverride
from repro.service import ServiceDaemon, ServiceManager
from repro.wild.stream import ScanRequest

SOURCE = {"kind": "synthetic", "count": 2000, "seed": 3}
SCAN = {"source": SOURCE, "shard_size": 1000, "vantage_names": ["Hamburg"], "days": 1}

BAD_SCANS = {
    "shard_size string": {**SCAN, "shard_size": "abc"},
    "shard_size float": {**SCAN, "shard_size": 2.7},
    "seed null": {**SCAN, "seed": None},
    "days bool": {**SCAN, "days": True},
    "unknown key": {**SCAN, "bogus": 1},
    "vantage_names string": {**SCAN, "vantage_names": "Hamburg"},
    "probe_engine number": {**SCAN, "probe_engine": 1},
    "source count bool": {**SCAN, "source": {**SOURCE, "count": True}},
    "source seed float": {**SCAN, "source": {**SOURCE, "seed": 1.5}},
    "source count string": {**SCAN, "source": {**SOURCE, "count": "2000"}},
    "not a mapping": "not a dict",
}

BAD_RUNS = {
    "smoke string": {"experiments": ["fig6"], "smoke": "false"},
    "experiments number": {"experiments": 5},
    "experiments nested": {"experiments": [["fig6"]]},
    "overrides not a mapping per experiment": {"experiments": ["fig6"], "overrides": {"fig6": 5}},
    "unknown key": {"experiments": ["fig6"], "bogus": 1},
}


@pytest.fixture()
def manager():
    mgr = ServiceManager(pool=1, workers=0)
    yield mgr
    mgr.close()


@pytest.mark.parametrize("doc", BAD_SCANS.values(), ids=BAD_SCANS.keys())
def test_a_malformed_scan_job_is_refused_before_it_is_queued(manager, doc):
    with pytest.raises(InvalidOverride):
        manager.submit({"scan": doc})
    assert manager.jobs() == []


@pytest.mark.parametrize("doc", BAD_SCANS.values(), ids=BAD_SCANS.keys())
def test_a_malformed_scan_document_is_refused_by_a_session(doc):
    with Session() as session, pytest.raises(InvalidOverride):
        session.scan(doc)


@pytest.mark.parametrize("doc", BAD_RUNS.values(), ids=BAD_RUNS.keys())
def test_a_malformed_run_job_is_refused_before_it_is_queued(manager, doc):
    with pytest.raises(InvalidOverride):
        manager.submit(doc)
    assert manager.jobs() == []


def test_a_well_formed_scan_document_reads_back_as_written():
    request = ScanRequest.from_dict(SCAN)
    assert request.vantage_names == ("Hamburg",)
    assert ScanRequest.from_dict(request.to_dict()) == request
    assert ScanRequest.from_dict({"source": SOURCE}) == ScanRequest(source=SOURCE)


@pytest.fixture()
def post(manager):
    """``post(body) -> (head, reply document)``: one raw ``POST /v1/jobs``
    to a daemon serving ``manager``."""
    server = ServiceDaemon(manager, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    host, port = server.wait_started(timeout=10).rsplit(":", 1)

    def send(body: bytes):
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request)
            head, _, reply = sock.makefile("rb").read().partition(b"\r\n\r\n")
        return head, json.loads(reply)

    yield send
    server.stop()
    thread.join(timeout=10)


def test_a_malformed_job_over_http_is_a_400_naming_its_kind(manager, post):
    head, doc = post(json.dumps({"scan": BAD_SCANS["shard_size string"]}).encode())
    assert head.startswith(b"HTTP/1.1 400 ")
    assert doc["kind"] == "InvalidOverride" and "shard_size" in doc["error"]
    assert manager.jobs() == []


def test_a_body_that_is_not_json_is_a_400_http_error(manager, post):
    head, doc = post(b"{not json")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert doc["kind"] == "HttpError" and "not valid JSON" in doc["error"]
    assert manager.jobs() == []
