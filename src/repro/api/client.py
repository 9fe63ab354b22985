"""``ServiceClient`` — the typed client of the ``repro serve`` daemon.

The client mirrors :class:`~repro.api.Session`'s job surface over the
wire: ``submit`` returns a :class:`ServiceJobHandle` whose
``status()`` / ``events()`` / ``result()`` behave like the in-process
:class:`~repro.api.jobs.LocalJobHandle`'s, with
:class:`~repro.api.jobs.JobRecord` and the typed
:class:`~repro.runtime.events.RunEvent` stream as the shared
vocabulary. Errors come back typed too: the daemon ships
``{"error", "kind"}`` documents and the client re-raises the matching
:mod:`repro.errors` class (an unknown experiment submitted remotely
raises the same :class:`~repro.errors.UnknownExperiment` a local run
would).

Like the daemon, the transport is hand-rolled stdlib: one blocking
socket per request (``Connection: close``), ``host:port`` TCP or
``unix:PATH`` domain sockets, and an SSE reader for ``events`` that
skips unknown event kinds — a client older than its daemon degrades,
never dies.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import repro.errors as errors
from repro.api.jobs import JobHandle, JobId, JobRecord, JobStatus, check_job_id
from repro.api.session import RunRequest
from repro.errors import ServiceError
from repro.runtime.events import RunEvent, event_from_dict
from repro.schema import check_bundle_version

__all__ = ["ServiceClient", "ServiceJobHandle", "error_type", "parse_service_address"]

#: Cap on response documents (the largest legitimate one is a fetched
#: bundle, comfortably under this).
MAX_RESPONSE_BYTES = 256 * 1024 * 1024


def split_host_port(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``, the one splitter of every
    address flag: a bracketed IPv6 literal (``[::1]:7399``) is
    unwrapped and the port is a number in 1–65535. Raises
    ``ValueError`` saying what is wrong."""
    host, sep, port_text = value.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise ValueError(f"expects HOST:PORT, got {value!r}")
    if not (port_text.isascii() and port_text.isdigit()):
        raise ValueError(f"expects a numeric port, got {value!r}")
    port = int(port_text)
    if not 0 < port < 65536:
        raise ValueError(f"port out of range: {port}")
    return host, port


def parse_service_address(value: str) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """``unix:PATH`` or ``HOST:PORT`` → ``("unix", path)`` /
    ``("tcp", (host, port))``."""
    if value.startswith("unix:"):
        path = value[len("unix:") :]
        if not path:
            raise ServiceError(f"empty unix socket path in {value!r}")
        return "unix", path
    try:
        return "tcp", split_host_port(value)
    except ValueError as exc:
        raise ServiceError(f"service address {exc}") from None


def error_type(kind: Any) -> type:
    """The :mod:`repro.errors` class named by a wire ``kind`` (falling
    back to :class:`ServiceError` for kinds this build lacks)."""
    if isinstance(kind, str) and kind in errors.__all__:
        cls = getattr(errors, kind, None)
        if isinstance(cls, type) and issubclass(cls, errors.ReproError):
            return cls
    return ServiceError


class ServiceClient:
    """A blocking client bound to one daemon address.

    ``timeout`` covers connection setup and every non-streaming
    request; the ``events`` stream, which legitimately idles between
    cells, is unbounded once its headers arrive.

    ``token`` is the daemon's bearer secret (``repro serve
    --auth-token``); when omitted, the ``REPRO_SERVICE_TOKEN``
    environment variable supplies it, matching how the address
    defaults from ``REPRO_SERVICE``. Every request carries it as
    ``Authorization: Bearer <token>``.
    """

    def __init__(self, address: str, *, timeout: float = 30.0, token: Optional[str] = None):
        self.address = address
        self.family, self.target = parse_service_address(address)
        self.timeout = timeout
        if token is None:
            token = os.environ.get("REPRO_SERVICE_TOKEN", "").strip() or None
        self.token = token

    # -- transport ------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if self.family == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.target)
                return sock
            host, port = self.target
            return socket.create_connection((host, port), timeout=self.timeout)
        except OSError as exc:
            raise ServiceError(f"cannot reach repro service at {self.address}: {exc}")

    def _send_request(self, sock: socket.socket, method: str, path: str, body: Any) -> None:
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        host = self.target if self.family == "unix" else f"{self.target[0]}:{self.target[1]}"
        auth = f"Authorization: Bearer {self.token}\r\n" if self.token else ""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Connection: close\r\n"
            + auth
            + "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        sock.sendall(head.encode("latin-1") + payload)

    @staticmethod
    def _read_head(fh) -> Tuple[int, Dict[str, str]]:
        status_line = fh.readline(65536).decode("latin-1").strip()
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ServiceError(f"malformed service response line: {status_line!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise ServiceError(f"malformed service status code: {status_line!r}")
        headers: Dict[str, str] = {}
        while True:
            line = fh.readline(65536).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return status, headers

    def _request(self, method: str, path: str, body: Any = None) -> Any:
        with self._connect() as sock:
            self._send_request(sock, method, path, body)
            with sock.makefile("rb") as fh:
                status, headers = self._read_head(fh)
                length_text = headers.get("content-length")
                if length_text is not None:
                    length = int(length_text)
                    if length > MAX_RESPONSE_BYTES:
                        raise ServiceError(f"service response too large ({length} bytes)")
                    raw = fh.read(length)
                else:
                    raw = fh.read(MAX_RESPONSE_BYTES)
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"service response is not JSON: {exc}")
        if status != 200:
            message = doc.get("error") if isinstance(doc, dict) else None
            kind = doc.get("kind") if isinstance(doc, dict) else None
            raise error_type(kind)(message or f"service answered HTTP {status}")
        return doc

    # -- job surface ----------------------------------------------------

    def submit(self, request: Union[RunRequest, Dict[str, Any]]) -> "ServiceJobHandle":
        doc = request.to_dict() if isinstance(request, RunRequest) else dict(request)
        record = JobRecord.from_dict(self._request("POST", "/v1/jobs", doc))
        return ServiceJobHandle(self, record.job_id)

    def status(self, job_id: JobId) -> JobRecord:
        return JobRecord.from_dict(self._request("GET", f"/v1/jobs/{check_job_id(job_id)}"))

    def jobs(self) -> List[JobRecord]:
        doc = self._request("GET", "/v1/jobs")
        return [JobRecord.from_dict(item) for item in doc.get("jobs", [])]

    def cancel(self, job_id: JobId) -> JobRecord:
        return JobRecord.from_dict(self._request("POST", f"/v1/jobs/{check_job_id(job_id)}/cancel"))

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def events(self, job_id: JobId) -> Iterator[RunEvent]:
        """Typed run events of one job, live from its start; the
        stream ends when the job reaches a terminal state. Unknown
        event kinds from a newer daemon are skipped."""
        for payload in self._stream(job_id):
            event = event_from_dict(payload)
            if event is not None:
                yield event

    def _stream(self, job_id: JobId, deadline: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """The raw documents of one job's ``events`` stream, ending with
        the daemon's closing ``job_status`` element. ``deadline`` (a
        ``time.monotonic()`` instant) bounds the whole stream:
        ``TimeoutError`` once it passes."""
        path = f"/v1/jobs/{check_job_id(job_id)}/events"
        sock = self._connect()
        try:
            self._send_request(sock, "GET", path, None)
            fh = sock.makefile("rb")
            status, headers = self._read_head(fh)
            if status != 200:
                raw = fh.read(MAX_RESPONSE_BYTES)
                try:
                    doc = json.loads(raw.decode("utf-8"))
                except Exception:
                    doc = {}
                raise error_type(doc.get("kind"))(
                    doc.get("error") or f"service answered HTTP {status}"
                )
            # Events may be minutes apart mid-suite: past the response
            # head, only the caller's deadline bounds the stream.
            sock.settimeout(None if deadline is None else max(deadline - time.monotonic(), 0.001))
            try:
                for line in fh:
                    text = line.decode("utf-8", "replace").strip()
                    if not text.startswith("data:"):
                        continue
                    try:
                        payload = json.loads(text[len("data:") :].strip())
                    except ValueError:
                        continue
                    if isinstance(payload, dict):
                        yield payload
                    if deadline is not None and time.monotonic() >= deadline:
                        raise TimeoutError(f"job {job_id} still running")
            except socket.timeout:
                raise TimeoutError(f"job {job_id} still running") from None
        finally:
            sock.close()

    # -- results --------------------------------------------------------

    def fetch(self, job_id: JobId) -> Dict[str, str]:
        """The finished job's bundle as ``filename → exact text`` —
        the same bytes ``repro run --out`` writes locally. Validates
        the document's ``schema_version``."""
        doc = self._request("GET", f"/v1/jobs/{check_job_id(job_id)}/fetch")
        if not isinstance(doc, dict) or not isinstance(doc.get("files"), dict):
            raise ServiceError("malformed bundle document from service")
        check_bundle_version(doc, what="fetched bundle")
        return {str(name): str(text) for name, text in doc["files"].items()}

    def fetch_to(self, job_id: JobId, out_dir: Union[str, Path]) -> List[Path]:
        """Write the fetched bundle as a directory (the remote
        equivalent of ``repro run --out DIR``); returns the paths."""
        files = self.fetch(job_id)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for name, text in files.items():
            path = out / Path(name).name  # no traversal via file names
            path.write_text(text)
            written.append(path)
        return written

    def wait(self, job_id: JobId, timeout: Optional[float] = None) -> JobRecord:
        """Follow the job's event stream until it reaches a terminal
        state; returns the final record (``TimeoutError`` past
        ``timeout``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for payload in self._stream(job_id, deadline):
                if payload.get("kind") == "job_status":
                    record = JobRecord.from_dict(payload["record"])
                    if record.status.terminal:
                        return record
            # The stream closed without a final record (a daemon older
            # than its closing element, or a dropped connection).
            record = self.status(job_id)
            if record.status.terminal:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {record.status.value}")


class ServiceJobHandle(JobHandle):
    """Remote job handle: the daemon-backed twin of
    :class:`~repro.api.jobs.LocalJobHandle`."""

    def __init__(self, client: ServiceClient, job_id: JobId):
        self._client = client
        self._job_id = job_id

    @property
    def job_id(self) -> JobId:
        return self._job_id

    def status(self) -> JobRecord:
        return self._client.status(self._job_id)

    def events(self) -> Iterator[RunEvent]:
        return self._client.events(self._job_id)

    def result(self, timeout: Optional[float] = None) -> Dict[str, str]:
        """Wait for the job and return its bundle files
        (``filename → text``); raises the job's typed failure, or
        :class:`ServiceError` if it was cancelled."""
        record = self._client.wait(self._job_id, timeout=timeout)
        if record.status is JobStatus.SUCCEEDED:
            return self._client.fetch(self._job_id)
        if record.status is JobStatus.CANCELLED:
            raise ServiceError(f"job {self._job_id} was cancelled")
        raise error_type(record.error_kind)(
            record.error or f"job {self._job_id} {record.status.value}"
        )

    def cancel(self) -> JobRecord:
        return self._client.cancel(self._job_id)
