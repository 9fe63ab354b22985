"""The ``repro serve`` HTTP daemon: asyncio front, threaded core.

The daemon is two layers with one seam:

* :class:`~repro.service.manager.ServiceManager` (threads) runs the
  jobs — pool threads block in ``Session.run`` exactly like a CLI run
  would;
* :class:`ServiceDaemon` (asyncio) serves the wire — submissions,
  status polls, bundle fetches, and the ``events`` relay are all
  I/O-bound and cheap, so one event loop handles every client while
  the pool crunches cells.

The seam: the ``events`` relay registers a listener on the job's
event buffer that hands each new event to the loop
(``loop.call_soon_threadsafe`` onto an ``asyncio.Queue``), so no
thread waits per subscriber; everything else (submit, status, fetch,
cancel, health) is table lookups fast enough to call inline.

Endpoints (all JSON; one request per connection)::

    GET  /v1/health              daemon + pool + cache stats
    GET  /v1/jobs                the table's job records, submission order
    POST /v1/jobs                submit {RunRequest doc} -> JobRecord
    GET  /v1/jobs/<id>           one JobRecord
    GET  /v1/jobs/<id>/events    text/event-stream relay of run events
    GET  /v1/jobs/<id>/fetch     schema-stamped bundle document (held bytes)
    POST /v1/jobs/<id>/cancel    cancel (guaranteed while queued)

Errors are ``{"error": message, "kind": ExceptionClassName}`` with
a meaningful status (400 bad request, 404 unknown or evicted job —
kind ``UnknownJob`` — or unknown path, 409 fetch of an
unfinished/failed job); the client rebuilds the typed exception from
``kind``. The ``events`` stream ends with a synthetic
``{"kind": "job_status", "record": ...}`` element carrying the final
record — typed-event decoders skip it as an unknown kind, raw
consumers get closure.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import logging
import os
import threading
from typing import Optional

from repro.api.jobs import check_job_id
from repro.errors import ReproError, ServiceError, UnknownJob
from repro.runtime.events import event_to_dict
from repro.service.http import (
    SSE_HEAD,
    HttpError,
    HttpRequest,
    read_request,
    sse_event,
    write_body,
    write_json,
)
from repro.service.manager import ServiceManager

__all__ = ["ServiceDaemon"]

logger = logging.getLogger(__name__)


class ServiceDaemon:
    """One listening socket (TCP ``host:port`` or a unix domain
    ``socket_path``) serving a :class:`ServiceManager`.

    ``run()`` blocks until :meth:`stop` (thread-safe) is called;
    :attr:`address` is the bound address (``host:port`` or
    ``unix:PATH``) once :meth:`wait_started` returns — with
    ``port=0`` the kernel picks, so callers must read it back.
    """

    def __init__(
        self,
        manager: ServiceManager,
        *,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
    ):
        self.manager = manager
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.auth_token = auth_token or None
        self.address: Optional[str] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop`; blocks the calling thread."""
        asyncio.run(self.serve())

    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self.socket_path is not None:
            # A dead daemon's socket file would make every restart an
            # EADDRINUSE; replacing it is safe (a live daemon would be
            # a deployment error either way).
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
            server = await asyncio.start_unix_server(self._handle, path=self.socket_path)
            self.address = f"unix:{self.socket_path}"
        else:
            server = await asyncio.start_server(self._handle, self.host, self.port)
            bound = server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            if self.socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self.socket_path)

    def wait_started(self, timeout: Optional[float] = None) -> str:
        if not self._started.wait(timeout):
            raise ServiceError("service daemon did not start in time")
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Ask the serve loop to exit (callable from any thread)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    # -- connection handling --------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is not None:
                    await self._route(request, writer)
            except HttpError as exc:
                await write_json(
                    writer, exc.status, {"error": str(exc), "kind": "HttpError"}
                )
            except ReproError as exc:
                status = 404 if isinstance(exc, UnknownJob) else 400
                await write_json(
                    writer, status, {"error": str(exc), "kind": type(exc).__name__}
                )
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away; nothing to answer
        except Exception:
            logger.exception("service connection handler failed")
            with contextlib.suppress(Exception):
                await write_json(
                    writer, 500, {"error": "internal error", "kind": "ServiceError"}
                )
        finally:
            with contextlib.suppress(Exception):
                # Close ends every response, and close() alone sends no
                # FIN while a forked pool worker holds a copy of the socket.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()

    def _authorized(self, request: HttpRequest) -> bool:
        """Bearer-token gate: with ``auth_token`` set, every endpoint
        (the job API runs arbitrary registered experiments) demands
        ``Authorization: Bearer <token>``, compared constant-time."""
        if self.auth_token is None:
            return True
        scheme, _, value = request.headers.get("authorization", "").partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            value.strip(), self.auth_token
        )

    async def _route(self, request: HttpRequest, writer) -> None:
        if not self._authorized(request):
            raise HttpError(401, "missing or invalid bearer token")
        # Empty segments stay: dropping one would turn /v1/jobs//fetch
        # into a status request for a job named "fetch".
        parts = request.path.strip("/").split("/")
        if parts[:1] != ["v1"]:
            raise HttpError(404, f"unknown path {request.path!r}")
        rest = parts[1:]
        if rest == ["health"] and request.method == "GET":
            await write_json(writer, 200, self.manager.health())
            return
        if rest == ["jobs"]:
            if request.method == "POST":
                record = self.manager.submit(request.json())
                await write_json(writer, 200, record.to_dict())
                return
            if request.method == "GET":
                await write_json(
                    writer, 200, {"jobs": [r.to_dict() for r in self.manager.jobs()]}
                )
                return
            raise HttpError(405, f"{request.method} not allowed on /v1/jobs")
        if len(rest) in (2, 3) and rest[0] == "jobs":
            # A bad id is a ServiceError (400); one the table does not
            # hold is UnknownJob (404) from whichever manager call meets it.
            job_id = check_job_id(rest[1])
            action = rest[2] if len(rest) == 3 else None
            if action is None and request.method == "GET":
                await write_json(writer, 200, self.manager.status(job_id).to_dict())
                return
            if action == "events" and request.method == "GET":
                await self._relay_events(job_id, writer)
                return
            if action == "fetch" and request.method == "GET":
                try:
                    body = self.manager.bundle(job_id)
                except UnknownJob:
                    raise
                except ServiceError as exc:
                    raise HttpError(409, str(exc))
                await write_body(writer, 200, body)
                return
            if action == "cancel" and request.method == "POST":
                await write_json(writer, 200, self.manager.cancel(job_id).to_dict())
                return
        raise HttpError(404, f"no route for {request.method} {request.path!r}")

    async def _relay_events(self, job_id: str, writer) -> None:
        """Relay the job's events onto this connection as server-sent
        events, live: a mid-run subscriber gets the events so far at
        once, then each new one as the pool produces it, handed to this
        loop by a listener on the job's buffer (no thread of its own)."""
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue()
        buffer = self.manager.event_buffer(job_id)

        def listener(event) -> None:  # a pool thread, the buffer's lock held
            with contextlib.suppress(RuntimeError):  # the loop closed under us
                loop.call_soon_threadsafe(queue.put_nowait, event)

        backlog, closed = buffer.add_listener(listener)
        # What is buffered leaves with the head in one write: for a job
        # that ended before its events were asked for, the whole stream.
        out = [SSE_HEAD, *(sse_event(event_to_dict(event)) for event in backlog)]
        try:
            if not closed:
                writer.write(b"".join(out))
                out = []
                await writer.drain()
                while (event := await queue.get()) is not None:
                    writer.write(sse_event(event_to_dict(event)))
                    await writer.drain()
        finally:
            buffer.remove_listener(listener)
        record = self.manager.status(job_id)
        out.append(sse_event({"kind": "job_status", "record": record.to_dict()}))
        writer.write(b"".join(out))
        await writer.drain()
