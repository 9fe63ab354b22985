"""Minimal asyncio HTTP/1.1 plumbing for the ``repro serve`` daemon.

The daemon speaks a deliberately small slice of HTTP — enough for any
stock client (``curl``, a browser's ``EventSource``, the bundled
:class:`~repro.api.client.ServiceClient`) without pulling a web
framework into a stdlib-only reproduction:

* request: one request per connection (``Connection: close`` on every
  response), method + path + query string, headers, and an optional
  ``Content-Length`` JSON body;
* response: JSON documents with explicit lengths, or a chunked-free
  ``text/event-stream`` relay that the client reads until EOF.

One-request-per-connection is a feature here, not a shortcut: the
``events`` relay is an unbounded stream whose natural terminator *is*
connection close, and job submissions are rare enough (one per suite,
not one per cell) that keep-alive would buy nothing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.schema import render_json

__all__ = [
    "SSE_HEAD",
    "HttpError",
    "HttpRequest",
    "json_body",
    "read_request",
    "sse_event",
    "write_body",
    "write_json",
]

#: Refuse request heads and bodies larger than this — the only valid
#: body is one RunRequest document, which is tiny.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A request this server refuses to serve; becomes a JSON error
    response with the carried status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The request body as JSON (:class:`HttpError` 400 when it is
        not)."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON document")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request from an ``asyncio.StreamReader``.

    Returns ``None`` when the peer closed without sending one; raises
    :class:`HttpError` for malformed or oversized requests (the caller
    answers with the carried status and closes).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close before any request
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large")
    except ConnectionError:
        return None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"malformed Content-Length: {length_text!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(400, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:
                raise HttpError(400, "request body shorter than Content-Length")
    return HttpRequest(
        method=method,
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def _status_line(status: int) -> str:
    return f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"


def json_body(doc: Any) -> bytes:
    """The body of a JSON response: the rendered document and a newline."""
    return (render_json(doc) + "\n").encode("utf-8")


async def write_json(writer, status: int, doc: Any) -> None:
    """One complete JSON response (+ close semantics)."""
    await write_body(writer, status, json_body(doc))


async def write_body(writer, status: int, payload: bytes) -> None:
    """One complete JSON response whose body is already rendered."""
    head = (
        _status_line(status)
        + "Content-Type: application/json\r\n"
        + f"Content-Length: {len(payload)}\r\n"
        + "Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()


#: The head of a ``text/event-stream`` response; the stream ends when
#: the connection closes (no Content-Length, by design).
SSE_HEAD = (
    _status_line(200)
    + "Content-Type: text/event-stream\r\n"
    + "Cache-Control: no-store\r\n"
    + "Connection: close\r\n\r\n"
).encode("latin-1")


def sse_event(doc: Any) -> bytes:
    """One ``data: <json>`` server-sent event."""
    return f"data: {json.dumps(doc)}\n\n".encode("utf-8")
