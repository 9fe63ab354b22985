"""Multi-host chunk execution over a length-prefixed TCP protocol.

The ROADMAP's scaling step past the single-machine pool: a
:class:`SocketBackend` listens on one port, any number of
``python -m repro worker --connect HOST:PORT`` processes dial in, and
planned-suite chunks are served to whichever worker is idle. Results
carry their original cell indices, so reassembly is deterministic and
the suite output is bit-identical to local execution regardless of
worker count, chunk interleaving, or mid-run worker loss.

This module is the *transport*: framing, authentication, heartbeats,
per-worker sockets, and thread lifecycle. Every scheduling decision —
which worker gets which cells, chunk sizing, requeue/poison bounds,
speculative duplicates for stragglers — is made by the backend's one
:class:`~repro.runtime.scheduler.ChunkScheduler`, called only under
the backend's state lock.

Wire protocol (version 7)
-------------------------

Every frame is ``b"RPRO" | type:u8 | length:u32be | body`` and every
body, whatever the frame type, is a :mod:`repro.runtime.wire` body:
``u8 codec | pickle``, zlib-compressed when the pickle is at least
4 KiB and compresses smaller. Frames whose magic is wrong, whose
length exceeds :data:`MAX_FRAME_BYTES`, or whose body does not decode
(an unknown codec byte included) raise :class:`ProtocolError`; the
server answers any of those by dropping that connection (never by
crashing the run).

========== =============== ==========================================
type       direction       payload
========== =============== ==========================================
HELLO      worker → server ``{"version", "pid", "host", "epoch"}``
WELCOME    server → worker ``{"version"}``
CHUNK      server → worker ``(job_id, chunk_id, GroupedChunk, level)``
RESULT     worker → server ``(job_id, chunk_id, [(index, artifacts)],
                            cache_meta)``
HEARTBEAT  worker → server ``None`` (liveness while computing)
ERROR      worker → server ``{"job_id", "chunk_id", "error", "traceback",
                            "exception"}``
SHUTDOWN   server → worker ``None`` (drain and exit 0)
DRAIN      either way      ``None`` (graceful departure, see below)
========== =============== ==========================================

Version 2 extended RESULT with ``cache_meta``: ``None`` on a worker
running without a result cache, else a dict of the chunk's worker-cache
accounting (the keys of :meth:`~repro.runtime.cache.ResultCache.stats`:
``hits`` / ``misses`` / ``uncacheable`` / ``entries``, plus ``bytes``,
read as 0 when absent) that
the coordinator surfaces as
:class:`~repro.runtime.events.ChunkCacheStats`. Version 3 added the
DRAIN frame and the ``epoch`` HELLO field (0 on a worker's first
connection, incremented each time it rejoins after losing the
coordinator). Version 4 gave the data frames (CHUNK / RESULT / ERROR)
a codec byte, added the WELCOME frame that answers HELLO, and gave
CHUNK a fifth ``engine`` field. Version 5
dropped that field again with the batch cell engine: CHUNK is back to
four elements. Version 6 gave ERROR ``"exception"`` (an
:class:`~repro.errors.ObserveError` to re-raise as itself, else
``None``) and keeps out v5 workers, which cannot unpickle the
:class:`~repro.runtime.artifacts.ObservedCell` tasks suites now send.
Version 7 gives every frame, control frames included, the one body
format above; HELLO and WELCOME carry no codec fields.
Versions must match exactly (HELLO is rejected otherwise), so mixed
fleets fail loudly at connect time instead of mid-job.

Elastic membership
------------------

Workers join at any time — before, during, and between jobs — and
leave gracefully with DRAIN: a worker that wants to depart (SIGTERM on
``repro worker``) finishes its in-flight chunk, sends DRAIN, and
closes; the coordinator marks it draining on receipt (no new chunks),
emits :class:`~repro.runtime.events.WorkerDrained` instead of
``WorkerLost`` when the socket closes, and requeues nothing.
:meth:`SocketBackend.scale_hint` summarizes the fleet (connected /
busy / draining workers, outstanding cells, recommended fleet size)
for elastic deployments.

A worker that loses the coordinator (crash, restart) does not give up:
with a rejoin window configured (``--rejoin`` on the CLI) it redials
with exponential backoff and decorrelated jitter
(:func:`connect_with_retry`) and sends a fresh HELLO with a bumped
``epoch`` — a restarted coordinator is served what its result store
already holds and dispatches the rest to the reassembled fleet.

Adaptive chunk sizing
---------------------

:meth:`SocketBackend.run_cells` (the default path — an explicit
``chunk_size`` pins fixed slices) does not pre-chunk the sweep.
The scheduler keeps one EWMA of observed cells/sec per worker —
measured from CHUNK-send start to RESULT receipt, so a slow *link* is
priced in exactly like a slow *CPU* — and carves each worker's next
chunk off the remaining cell pool: at most the scheduler's time budget
of that worker's throughput, and at most its rate-proportional share
of what is left among the workers idle at that moment, clamped to the
scheduler's cell bounds (see :mod:`repro.runtime.scheduler`).
Because every result is tagged with its cell index, reassembly — and
therefore the result bundle — is byte-identical no matter how the pool
was carved.

The same EWMA data drives **speculative straggler re-execution**: when
the pool is drained but a chunk is overdue on a slow worker, an idle
worker receives a duplicate copy (first completion wins; the twin's
late result is ignored as any duplicate is). See
:mod:`repro.runtime.scheduler` for the eligibility and budget policy.

Worker-side result cache
------------------------

Workers keep a count-bounded :class:`~repro.runtime.cache.ResultCache`
(the same in-memory tier a
:class:`~repro.runtime.disk_cache.DiskResultCache` fronts its directory
with) for the life of the ``repro worker`` process — across chunks, jobs, *and
suites*. Sweeps that re-run the same ``(scenario value, seed)`` cells
(fig6 ⊂ fig12, fig13 ⊂ fig7, repeated CI suites against a warm fleet)
are served from the memo instead of re-simulated; determinism in the
key makes a cached artifact bit-identical to a recomputation, so
cached bundles match uncached ones byte for byte. Per-chunk hit
counts travel on RESULT frames and surface as
:class:`~repro.runtime.events.ChunkCacheStats` on
:class:`~repro.runtime.events.ChunkCompleted` events plus the
coordinator's :class:`BackendStats.worker_cache_hits` counter.

``job_id`` identifies one :meth:`SocketBackend.run_chunks` call; the
worker echoes it verbatim. Results and errors whose job id does not
match the current job are stale leftovers of an aborted run on a
reused backend and are discarded instead of corrupting the new job.
A RESULT whose echoed ``chunk_id`` is not a valid index into the
current job is a protocol error: it is never recorded (a forged or
buggy echo must not make the job complete with real chunks missing)
and the worker is dropped.

Authentication
--------------

Frame payloads are pickled, so accepting a frame from an
unauthenticated peer is arbitrary code execution. When an auth key is
configured, both sides run a mutual HMAC-SHA256 challenge/response
over raw fixed-size messages (the ``multiprocessing.connection``
authkey idiom) immediately after ``connect()``/``accept()`` — *before
any pickled frame is read by either side*. The coordinator proves
knowledge of the key to the worker and vice versa; distinct role
strings prevent reflecting a challenge back at its issuer. A peer
that fails (or never starts) the handshake is dropped without
``pickle.loads`` ever seeing its bytes.

The key is required to bind any non-loopback address:
:class:`SocketBackend` refuses ``0.0.0.0``-style binds without one.
Loopback-only coordinators may omit it, but a loopback TCP port is
still reachable by *every local user* (unlike an authkey-gated
``multiprocessing`` pipe), so keyless operation is only appropriate on
single-user machines — on shared hosts, set a key even for localhost
fleets (the CLI warns when running keyless). And note the handshake
authenticates peers, it does not encrypt traffic; run the protocol
over a trusted network, an SSH tunnel, or a VPN.

Failure semantics
-----------------

* A worker that stops sending frames for ``heartbeat_timeout`` seconds
  (or whose socket dies, or that sends a malformed frame) is dropped
  and its in-flight chunk is requeued for the remaining workers —
  unless a speculative twin still holds a live copy. A chunk
  dispatched :data:`~repro.runtime.scheduler.MAX_CHUNK_RETRIES` times
  without completing aborts the run — a poison chunk must not requeue
  forever (speculative duplicates do not count toward the bound: slow
  is not poison). CHUNK
  *sends* run on a dedicated per-worker write socket with their own
  size-aware deadline (:func:`chunk_send_timeout`), so a slow link
  that needs longer than ``heartbeat_timeout`` to receive a large
  chunk is not misclassified as a dead worker mid-transfer — the
  worker keeps heartbeating while it reads, and only a transfer slower
  than the send deadline's assumed floor rate drops it.
* A chunk that raises *inside* ``run_cell_chunk`` is deterministic
  (same cells fail everywhere), so the worker reports an ERROR frame
  and the server aborts the run with the remote traceback instead of
  requeueing.
* Late results from a worker presumed lost are accepted if the chunk
  is still outstanding and ignored otherwise (both copies are
  bit-identical, so either is safe).
* Every coordinator-side worker thread failure — including unexpected
  exceptions that are bugs — funnels into the one drop-worker path
  with the reason logged (logger ``repro.distributed``), so no failure
  mode leaves the coordinator waiting on a chunk that will never
  complete.
* Fault injection for all of the above is first-class: see
  :mod:`repro.runtime.faults` and the worker CLI's ``--fault-plan``.
"""

from __future__ import annotations

import hashlib
import hmac
import ipaddress
import logging
import os
import random
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendError, ObserveError, WorkerAuthError
from repro.runtime.artifacts import RunArtifacts
from repro.runtime.backend import ExecutionBackend
from repro.runtime.cache import ResultCache
from repro.runtime.events import (
    ChunkCacheStats,
    ChunkCompleted,
    ChunkDispatched,
    ChunkSpeculated,
    WorkerDrained,
    WorkerJoined,
    WorkerLost,
)
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.scheduler import (
    Assignment,
    ChunkScheduler,
    ScaleHint,
    WorkerState,
)
from repro.runtime.wire import decode_payload, encode_payload
from repro.runtime.worker import (
    GroupedChunk,
    IndexedCell,
    run_cell_chunk,
)
from repro.runtime.workloop import LEVEL

PROTOCOL_VERSION = 7
MAGIC = b"RPRO"
_HEADER = struct.Struct(">4sBI")

_log = logging.getLogger("repro.distributed")

#: Frames above this are refused on both send and receive (read at call
#: time). The bound stops runaway frames, not large chunks: be
#: generous.
MAX_FRAME_BYTES = 256 * 1024 * 1024
DEFAULT_HEARTBEAT_INTERVAL = 2.0
DEFAULT_HEARTBEAT_TIMEOUT = 30.0
DEFAULT_WORKER_WAIT_TIMEOUT = 120.0
#: CHUNK send deadline = floor + bytes / assumed worst-case link rate,
#: deliberately decoupled from ``heartbeat_timeout``: a slow-but-alive
#: worker keeps heartbeating while a large frame trickles in, and must
#: not be dropped mid-transfer as if it died.
SEND_TIMEOUT_FLOOR = 30.0
SEND_MIN_RATE_BYTES = 1_000_000.0
#: Default bound on the worker-resident cross-suite result cache
#: (entries, not bytes — what a suite caches is stats-level, a few
#: hundred bytes each; ``--cache-entries 0`` disables it).
DEFAULT_WORKER_CACHE_ENTRIES = 4096
#: How long a keyed worker waits for the coordinator's challenge — a
#: keyless coordinator sends nothing (it waits for HELLO), so without a
#: bound the mismatch would stall until the server's timeout with a
#: generic connection error instead of naming the key asymmetry.
DEFAULT_AUTH_TIMEOUT = 10.0
#: Reconnect backoff bounds for :func:`connect_with_retry`:
#: exponential growth with decorrelated jitter, capped so a whole
#: fleet redialing a restarting coordinator spreads out instead of
#: hammering it in lockstep.
RECONNECT_BASE_DELAY = 0.05
RECONNECT_MAX_DELAY = 2.0

MSG_HELLO = 1
MSG_CHUNK = 2
MSG_RESULT = 3
MSG_HEARTBEAT = 4
MSG_SHUTDOWN = 5
MSG_ERROR = 6
MSG_DRAIN = 7
MSG_WELCOME = 8


class ProtocolError(Exception):
    """A frame violated the wire protocol (bad magic, oversized,
    undecodable payload, or out-of-order message)."""


# -- framing ------------------------------------------------------------


def chunk_send_timeout(nbytes: int) -> float:
    """Size-aware deadline for sending one frame: a generous floor plus
    the transfer time at an assumed worst-case link rate. Decoupled from
    ``heartbeat_timeout`` on purpose — receive liveness and send
    progress are different questions (see the module docs)."""
    return SEND_TIMEOUT_FLOOR + nbytes / SEND_MIN_RATE_BYTES


def make_frame(msg_type: int, payload: Any) -> Tuple[bytes, int]:
    """Serialize one frame to wire bytes, enforcing the size bound.
    Returns ``(frame, raw_len)`` where ``raw_len`` is the body's size
    before compression — the byte counters report both so the
    compression win is a measured number."""
    body, raw_len = encode_payload(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound; lower the chunk size"
        )
    return _HEADER.pack(MAGIC, msg_type, len(body)) + body, raw_len


def send_frame(
    sock: socket.socket,
    msg_type: int,
    payload: Any,
    lock: Optional[threading.Lock] = None,
    size_aware_timeout: bool = False,
) -> Tuple[int, int]:
    """Serialize and send one frame (atomically under ``lock``).
    Returns ``(wire_len, raw_len)`` for the transfer byte counters.

    With ``size_aware_timeout`` the socket's timeout is set to
    :func:`chunk_send_timeout` of the frame size before sending — only
    safe on a socket that is never concurrently read (the coordinator's
    per-worker write socket), since timeouts are per socket object.
    """
    frame, raw_len = make_frame(msg_type, payload)
    if lock is None:
        if size_aware_timeout:
            sock.settimeout(chunk_send_timeout(len(frame)))
        sock.sendall(frame)
    else:
        with lock:
            if size_aware_timeout:
                sock.settimeout(chunk_send_timeout(len(frame)))
            sock.sendall(frame)
    return len(frame), raw_len


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        piece = sock.recv(nbytes - len(buf))
        if not piece:
            raise ConnectionError("connection closed mid-frame")
        buf += piece
    return bytes(buf)


def recv_frame_ex(sock: socket.socket) -> Tuple[int, Any, int, int]:
    """Read one frame, validating magic and length before the payload
    is ever buffered.

    Returns ``(msg_type, payload, wire_len, raw_len)`` where
    ``wire_len`` is the frame's on-the-wire size (header included) and
    ``raw_len`` the body's size before compression.
    """
    magic, msg_type, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic == AUTH_MAGIC:
        raise ProtocolError(
            "peer opened an authentication challenge but this side has "
            "no auth key (set --auth-key-file / REPRO_AUTH_KEY)"
        )
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    payload = _recv_exact(sock, length)
    try:
        obj, raw_len = decode_payload(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc!r}") from exc
    return msg_type, obj, _HEADER.size + length, raw_len


def recv_frame(sock: socket.socket) -> Tuple[int, Any]:
    """:func:`recv_frame_ex` without the byte accounting."""
    msg_type, payload, _, _ = recv_frame_ex(sock)
    return msg_type, payload


# -- authentication -----------------------------------------------------
#
# Everything here is raw fixed-size bytes, never pickle: it runs before
# the peer has proven knowledge of the key, which is exactly when
# pickle.loads would be remote code execution.

AUTH_MAGIC = b"RPAU"
_AUTH_WELCOME = b"RPOK"
_AUTH_FAILURE = b"RPNO"
_AUTH_NONCE_BYTES = 32
_AUTH_DIGEST_BYTES = hashlib.sha256().digest_size
#: Distinct per-direction role strings keyed into the HMAC so a peer
#: cannot answer a challenge by reflecting it back at its issuer.
_ROLE_WORKER = b"repro-distributed-v1:worker"
_ROLE_COORDINATOR = b"repro-distributed-v1:coordinator"


def _auth_digest(key: bytes, role: bytes, nonce: bytes) -> bytes:
    return hmac.new(key, role + b"|" + nonce, hashlib.sha256).digest()


def _deliver_challenge(sock: socket.socket, key: bytes, role: bytes) -> None:
    nonce = os.urandom(_AUTH_NONCE_BYTES)
    sock.sendall(AUTH_MAGIC + nonce)
    digest = _recv_exact(sock, _AUTH_DIGEST_BYTES)
    if not hmac.compare_digest(digest, _auth_digest(key, role, nonce)):
        sock.sendall(_AUTH_FAILURE)
        raise ProtocolError("peer failed the authentication challenge")
    sock.sendall(_AUTH_WELCOME)


def _answer_challenge(sock: socket.socket, key: bytes, role: bytes) -> None:
    magic = _recv_exact(sock, len(AUTH_MAGIC))
    if magic == MAGIC:
        raise ProtocolError(
            "peer sent a protocol frame instead of an authentication "
            "challenge (peer has no auth key configured?)"
        )
    if magic != AUTH_MAGIC:
        raise ProtocolError("peer did not open an authentication challenge")
    nonce = _recv_exact(sock, _AUTH_NONCE_BYTES)
    sock.sendall(_auth_digest(key, role, nonce))
    verdict = _recv_exact(sock, len(_AUTH_WELCOME))
    if verdict != _AUTH_WELCOME:
        raise ProtocolError("authentication digest rejected by peer")


def authenticate_server(sock: socket.socket, key: bytes) -> None:
    """Coordinator side of the mutual pre-pickle handshake: verify the
    worker knows the key, then prove the coordinator does too."""
    _deliver_challenge(sock, key, _ROLE_WORKER)
    _answer_challenge(sock, key, _ROLE_COORDINATOR)


def authenticate_client(sock: socket.socket, key: bytes) -> None:
    """Worker side: answer the coordinator's challenge, then verify the
    coordinator before accepting any pickled CHUNK from it."""
    _answer_challenge(sock, key, _ROLE_WORKER)
    _deliver_challenge(sock, key, _ROLE_COORDINATOR)


def _is_loopback(host: str) -> bool:
    # An empty host binds INADDR_ANY (every interface), so it is
    # emphatically NOT loopback.
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


# -- worker side --------------------------------------------------------


def _enable_keepalive(sock: socket.socket) -> None:
    """TCP keepalive so a peer that vanishes without a FIN/RST (host
    power-off, network partition) is detected in minutes, not never —
    idle workers block in ``recv`` between jobs with no protocol-level
    traffic of their own to notice the loss."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 3),
    ):
        if hasattr(socket, option):  # Linux; other platforms keep defaults
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)


def connect_with_retry(
    host: str,
    port: int,
    retry_for: float = 0.0,
    base_delay: float = RECONNECT_BASE_DELAY,
    max_delay: float = RECONNECT_MAX_DELAY,
) -> socket.socket:
    """Dial the coordinator, retrying for up to ``retry_for`` seconds —
    lets workers start before the ``repro run`` process is listening,
    and lets a fleet redial a restarting coordinator.

    Retries back off exponentially with decorrelated jitter (each
    delay drawn uniformly from ``[base_delay, 3 × previous]``, capped
    at ``max_delay``): a hundred workers that all lost the coordinator
    at the same instant spread their reconnects out instead of
    stampeding the fresh listener in lockstep every fixed interval.
    """
    deadline = time.monotonic() + retry_for
    delay = base_delay
    while True:
        try:
            return socket.create_connection((host, port))
        except OSError:
            now = time.monotonic()
            if now >= deadline:
                raise
            delay = min(max_delay, random.uniform(base_delay, delay * 3))
            time.sleep(min(delay, max(deadline - now, 0.0)))


def _send_throttled(
    sock: socket.socket,
    frame: bytes,
    bytes_per_sec: float,
    lock: threading.Lock,
    slice_bytes: int = 8192,
) -> None:
    """Fault injection: trickle one frame at ``bytes_per_sec`` (holds
    the send lock throughout, exactly like a thin uplink queueing
    heartbeats behind a large RESULT)."""
    with lock:
        for start in range(0, len(frame), slice_bytes):
            piece = frame[start : start + slice_bytes]
            sock.sendall(piece)
            time.sleep(len(piece) / bytes_per_sec)


def worker_main(
    host: str,
    port: int,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    retry_for: float = 10.0,
    auth_key: Optional[bytes] = None,
    cache_entries: Optional[int] = DEFAULT_WORKER_CACHE_ENTRIES,
    log: Optional[Callable[[str], None]] = None,
    fault_plan: Optional[FaultPlan] = None,
    rejoin_for: float = 0.0,
    drain_event: Optional[threading.Event] = None,
) -> int:
    """One remote worker: connect, serve chunks until SHUTDOWN.

    With ``auth_key`` set, the mutual HMAC handshake runs before any
    pickled frame crosses the socket in either direction; a coordinator
    that cannot prove knowledge of the key is abandoned (exit 1).

    A daemon thread heartbeats every ``heartbeat_interval`` seconds so
    the server can tell a long-running chunk from a dead worker.

    ``cache_entries`` bounds the worker-resident
    :class:`~repro.runtime.cache.ResultCache` that memoizes cells by
    ``(scenario value, seed, level)`` for the life of this process —
    across chunks, jobs, and consecutive suites. ``0``/``None``
    disables it. Per-chunk hit counts are reported on RESULT frames.

    ``fault_plan`` injects structured faults for failure-path tests
    and chaos runs (see :mod:`repro.runtime.faults`); e.g.
    ``FaultPlan(kill_after_chunks=N)``: after serving that many chunks
    the worker hard-exits (``os._exit``) upon receiving its next chunk
    — indistinguishable from SIGKILL, guaranteeing an unacknowledged
    in-flight chunk. Fault counters span the process lifetime, so a
    rejoining worker does not re-arm an already-fired fault.

    ``rejoin_for`` > 0 turns coordinator loss into a reconnect window:
    instead of exiting, the worker redials (backoff with jitter) for up
    to that many seconds and re-registers with a bumped HELLO ``epoch``
    — the worker half of coordinator crash recovery.

    ``drain_event`` requests a graceful departure (the CLI sets it on
    SIGTERM): the worker finishes its in-flight chunk if any, sends
    DRAIN, and exits 0 without the coordinator counting a loss.

    Returns 0 on orderly shutdown or drain, 1 if the coordinator
    vanished (and any rejoin window expired).
    """
    say = log or (lambda message: None)
    faults = FaultInjector(fault_plan)
    cache = ResultCache(max_entries=cache_entries) if cache_entries else None
    drain = drain_event if drain_event is not None else threading.Event()
    epoch = 0
    window = retry_for
    while True:
        try:
            sock = connect_with_retry(host, port, retry_for=window)
        except OSError as exc:
            say(f"could not reach coordinator {host}:{port}: {exc!r}")
            return 1
        code, coordinator_lost = _worker_session(
            sock,
            host,
            port,
            epoch,
            heartbeat_interval,
            auth_key,
            cache,
            faults,
            drain,
            say,
        )
        if not coordinator_lost or rejoin_for <= 0 or drain.is_set():
            return code
        epoch += 1
        window = rejoin_for
        say(f"rejoining {host}:{port} as epoch {epoch} (window {rejoin_for:g}s)")


def _worker_session(
    sock: socket.socket,
    host: str,
    port: int,
    epoch: int,
    heartbeat_interval: float,
    auth_key: Optional[bytes],
    cache: Optional[ResultCache],
    faults: FaultInjector,
    drain: threading.Event,
    say: Callable[[str], None],
) -> Tuple[int, bool]:
    """Serve one connection; returns ``(exit_code, coordinator_lost)``
    where ``coordinator_lost`` marks an abrupt loss eligible for a
    rejoin (auth failures and orderly SHUTDOWN/DRAIN exits are not)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    _enable_keepalive(sock)
    if auth_key is not None:
        sock.settimeout(DEFAULT_AUTH_TIMEOUT)
        try:
            authenticate_client(sock, auth_key)
        except TimeoutError:
            say(
                f"authentication with {host}:{port} timed out waiting "
                "for a challenge — is the coordinator running without "
                "an auth key?"
            )
            sock.close()
            return 1, False
        except (ProtocolError, ConnectionError, OSError) as exc:
            say(f"authentication with {host}:{port} failed: {exc!r}")
            sock.close()
            return 1, False
        sock.settimeout(None)
    send_lock = threading.Lock()
    stop = threading.Event()
    computing = threading.Event()
    drained = threading.Event()

    def goodbye() -> None:
        # Announce graceful departure exactly once; a send failure just
        # means the coordinator is already gone.
        if drained.is_set():
            return
        drained.set()
        try:
            send_frame(sock, MSG_DRAIN, None, lock=send_lock)
        except OSError:
            pass

    heartbeat_budget = faults.heartbeat_budget()

    def beat() -> None:
        beats_sent = 0
        while not stop.wait(heartbeat_interval):
            if drain.is_set() and not computing.is_set():
                # Idle drain: the main loop is blocked in recv with no
                # frame coming; say goodbye and wake it via local EOF.
                goodbye()
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
                return
            if heartbeat_budget is not None and beats_sent >= heartbeat_budget:
                continue  # fault injection: liveness thread goes silent
            try:
                send_frame(sock, MSG_HEARTBEAT, None, lock=send_lock)
                beats_sent += 1
            except Exception:
                # A dying liveness thread must not be silent: close the
                # socket so the main recv loop notices immediately
                # instead of idling until the coordinator drops us.
                try:
                    sock.close()
                except OSError:
                    pass
                return

    chunks_done = 0
    try:
        send_frame(
            sock,
            MSG_HELLO,
            {
                "version": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "epoch": epoch,
            },
            lock=send_lock,
        )
        # The coordinator answers HELLO with WELCOME before any CHUNK.
        # A coordinator of another version rejects the HELLO instead,
        # which lands here as a closed connection — loud, not corrupted
        # frames.
        msg_type, payload = recv_frame(sock)
        if msg_type != MSG_WELCOME or not isinstance(payload, dict):
            raise ProtocolError(
                f"expected WELCOME after HELLO, got message type {msg_type}"
            )
        if payload.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(f"protocol version mismatch: {payload!r}")
        say(f"connected to {host}:{port} (pid {os.getpid()}, epoch {epoch})")
        threading.Thread(target=beat, daemon=True).start()
        while True:
            if drain.is_set():
                goodbye()
                say(f"draining after {chunks_done} chunk(s)")
                return 0, False
            msg_type, payload = recv_frame(sock)
            if msg_type == MSG_SHUTDOWN:
                say(f"shutdown after {chunks_done} chunk(s)")
                return 0, False
            if msg_type != MSG_CHUNK:
                continue
            job_id, chunk_id, grouped, level_value = payload
            if faults.should_kill_on_chunk():
                say(f"fault injection: dying with chunk {chunk_id} in flight")
                os._exit(17)
            computing.set()
            try:
                delay = faults.chunk_delay()
                if delay > 0:
                    time.sleep(delay)
                before = cache.stats() if cache is not None else None
                results = run_cell_chunk(grouped, level_value, cache=cache)
                cache_meta = cache.since(before) if cache is not None else None
                if faults.should_corrupt_result():
                    say(f"fault injection: corrupting RESULT for chunk {chunk_id}")
                    with send_lock:
                        sock.sendall(b"BOGUSFRAMEBYTES!")
                    continue
                reply = (job_id, chunk_id, results, cache_meta)
                rate = faults.send_rate()
                if rate is not None:
                    frame, _ = make_frame(MSG_RESULT, reply)
                    _send_throttled(sock, frame, rate, send_lock)
                else:
                    send_frame(sock, MSG_RESULT, reply, lock=send_lock)
            except Exception as exc:
                # Includes an oversized RESULT pickle: that is as
                # deterministic as a simulator error, so report it
                # instead of dying and letting the chunk requeue.
                send_frame(
                    sock,
                    MSG_ERROR,
                    {
                        "job_id": job_id,
                        "chunk_id": chunk_id,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                        # Not the fleet's failure: re-raised as itself.
                        "exception": exc if isinstance(exc, ObserveError) else None,
                    },
                    lock=send_lock,
                )
                continue
            finally:
                computing.clear()
            chunks_done += 1
    except (ConnectionError, ProtocolError, OSError) as exc:
        if drained.is_set():
            say(f"drained after {chunks_done} chunk(s)")
            return 0, False
        say(f"coordinator lost: {exc!r}")
        return 1, True
    finally:
        stop.set()
        sock.close()


# -- server side --------------------------------------------------------


def _decode_cache_meta(meta: Any) -> Optional[ChunkCacheStats]:
    """Validate a RESULT frame's cache accounting. ``None`` means the
    worker runs cacheless; anything else must be a well-formed counter
    dict — a worker echo is untrusted input, so garbage is a protocol
    error (dropping the worker), never a crash or silent bad stats."""
    if meta is None:
        return None
    try:
        return ChunkCacheStats(
            hits=int(meta["hits"]),
            misses=int(meta["misses"]),
            uncacheable=int(meta["uncacheable"]),
            entries=int(meta["entries"]),
            bytes=int(meta.get("bytes", 0)),
        )
    except (KeyError, TypeError, ValueError):
        raise ProtocolError(f"malformed RESULT cache stats: {meta!r}") from None


@dataclass
class BackendStats:
    """Observability counters for one :class:`SocketBackend`."""

    workers_seen: int = 0
    workers_lost: int = 0
    #: Workers that departed gracefully via DRAIN (not counted lost).
    workers_drained: int = 0
    #: Distinct workers that completed at least one chunk: a fleet of N
    #: that reports fewer ran part of its work on fewer cores.
    workers_used: int = 0
    #: CHUNK frames sent: one per ``ChunkDispatched`` event. An
    #: assignment rolled back before its send, or whose send failed,
    #: is not counted.
    chunks_dispatched: int = 0
    chunks_requeued: int = 0
    #: Speculative duplicates sent: one per ``ChunkSpeculated`` event
    #: (included in ``chunks_dispatched`` as well).
    chunks_speculated: int = 0
    protocol_errors: int = 0
    #: Connections that reached the coordinator but failed the mutual
    #: HMAC handshake — the signature of a shared-secret mismatch.
    auth_failures: int = 0
    #: Cells served from worker-resident result caches instead of
    #: simulated, summed over every recorded RESULT frame.
    worker_cache_hits: int = 0
    #: Transfer accounting for CHUNK and RESULT frames: ``*_raw`` is the
    #: uncompressed body size, ``*_wire`` what actually crossed the
    #: socket (header included) — the compression win is
    #: ``raw - wire``, a measured number rather than a claim.
    chunk_bytes_raw: int = 0
    chunk_bytes_wire: int = 0
    result_bytes_raw: int = 0
    result_bytes_wire: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class _WorkerConn:
    """Server-side *transport* state of one connected worker; all
    scheduling state, the drain flag included, lives in its
    :class:`~repro.runtime.scheduler.WorkerState` (``state``).

    ``wsock`` is a ``dup()`` of the connection used exclusively for
    server → worker sends: socket timeouts are per Python socket
    object, so the reader thread's ``heartbeat_timeout`` (liveness)
    and the dispatcher's size-aware send deadline (transfer progress)
    stay independent on the one TCP stream.
    """

    __slots__ = (
        "wid",
        "sock",
        "wsock",
        "addr",
        "send_lock",
        "alive",
        "inflight",
        "state",
        "used",
        "info",
    )

    def __init__(
        self,
        sock: socket.socket,
        wsock: socket.socket,
        addr: Any,
        info: Dict[str, Any],
        state: WorkerState,
    ):
        self.wid = state.wid
        self.sock = sock
        self.wsock = wsock
        self.addr = addr
        self.send_lock = threading.Lock()
        self.alive = True
        #: ``(job_id, chunk_id)`` of the dispatched-but-unanswered chunk.
        self.inflight: Optional[Tuple[int, int]] = None
        self.state = state
        #: Has completed a chunk (counted once in ``workers_used``).
        self.used = False
        self.info = info


class SocketBackend(ExecutionBackend):
    """Serve chunks to remote ``repro worker`` processes over TCP.

    The listener binds in the constructor (``port=0`` picks an
    ephemeral port, re-read from :attr:`port`), an accept thread admits
    workers as they dial in — before, during, and between jobs — and
    :meth:`run_chunks` / :meth:`run_cells` block until ``min_workers``
    are connected before dispatching. One chunk is outstanding per
    worker; finished workers immediately receive the next pending
    chunk, so faster workers naturally take more of the queue.

    Scheduling policy — chunk sizing, requeue/poison bounds,
    speculation, drain bookkeeping — is the backend's own
    :class:`~repro.runtime.scheduler.ChunkScheduler`, always invoked
    under this backend's state lock.

    :meth:`run_cells` (what :func:`~repro.runtime.workloop.run_work`
    calls without a ``chunk_size``) sizes each worker's next chunk
    adaptively from its observed throughput and the idle workers'
    shares of the remaining pool — see the module docs; an explicit
    ``chunk_size`` pins fixed slices.
    """

    name = "distributed"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int = 1,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        worker_wait_timeout: float = DEFAULT_WORKER_WAIT_TIMEOUT,
        auth_key: Optional[bytes] = None,
    ):
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if auth_key is not None and not auth_key:
            raise ValueError("auth_key must be non-empty when set")
        if auth_key is None and not _is_loopback(host):
            raise ValueError(
                f"binding {host!r} exposes the coordinator beyond loopback "
                "and the protocol carries pickled payloads; an auth key is "
                "required (auth_key= / --auth-key-file / REPRO_AUTH_KEY)"
            )
        self.auth_key = auth_key
        self.min_workers = min_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_wait_timeout = worker_wait_timeout
        self._scheduler = ChunkScheduler()
        self.stats = BackendStats()
        self._listener = socket.create_server((host, port), backlog=16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: Dict[int, _WorkerConn] = {}
        self._next_wid = 0
        self._job_seq = 0
        #: Recorded chunks whose result-observer call has not returned.
        self._observing = 0
        self._closed = False
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # -- connection management -----------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:  # listener closed
                return
            except Exception:  # pragma: no cover - accept() bug/resource edge
                # An unexpected accept failure must not kill admission
                # for the rest of the run; log and keep listening.
                if self._closed:
                    return
                _log.exception("accept loop error; continuing")
                continue
            threading.Thread(target=self._serve_worker, args=(sock, addr), daemon=True).start()

    def _serve_worker(self, sock: socket.socket, addr: Any) -> None:
        sock.settimeout(self.heartbeat_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - socket already dead
            sock.close()
            return
        if self.auth_key is not None:
            try:
                authenticate_server(sock, self.auth_key)
            except (ProtocolError, ConnectionError, OSError):
                # Tracked separately from generic protocol noise so a
                # fleet that "never assembles" can be diagnosed as a
                # key mismatch (WorkerAuthError) instead of a timeout.
                with self._cond:
                    self.stats.protocol_errors += 1
                    self.stats.auth_failures += 1
                    self._cond.notify_all()
                sock.close()
                return
        try:
            msg_type, payload = recv_frame(sock)
            if msg_type != MSG_HELLO:
                raise ProtocolError(f"expected HELLO, got message type {msg_type}")
            if not isinstance(payload, dict) or payload.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(f"protocol version mismatch: {payload!r}")
            # WELCOME goes out *before* the worker is registered — no
            # CHUNK can be dispatched to it yet, so WELCOME is
            # guaranteed to be the first frame the worker reads after
            # its HELLO.
            send_frame(sock, MSG_WELCOME, {"version": PROTOCOL_VERSION})
        except (ProtocolError, ConnectionError, OSError):
            with self._cond:
                self.stats.protocol_errors += 1
            sock.close()
            return
        with self._cond:
            if self._closed:
                sock.close()
                return
            try:
                wsock = sock.dup()
            except OSError:  # fd exhaustion; not a peer bug
                sock.close()
                return
            self._next_wid += 1
            state = self._scheduler.add_worker(self._next_wid)
            conn = _WorkerConn(sock, wsock, addr, payload, state)
            self._workers[conn.wid] = conn
            self.stats.workers_seen += 1
            self._cond.notify_all()
        self.emit(
            WorkerJoined(
                worker_id=conn.wid,
                host=str(payload.get("host", addr)),
                pid=int(payload.get("pid", 0) or 0),
            )
        )
        reason: Optional[BaseException] = None
        try:
            while True:
                msg_type, payload, wire_len, raw_len = recv_frame_ex(sock)
                if msg_type == MSG_HEARTBEAT:
                    continue
                if msg_type == MSG_DRAIN:
                    # Graceful departure announced: no new chunks; the
                    # socket close that follows is not a loss.
                    with self._cond:
                        self._scheduler.drain_worker(conn.wid)
                        self._cond.notify_all()
                elif msg_type == MSG_RESULT:
                    if not (isinstance(payload, tuple) and len(payload) == 4):
                        raise ProtocolError(f"malformed RESULT payload: {payload!r}")
                    job_id, chunk_id, results, cache_meta = payload
                    cache_stats = _decode_cache_meta(cache_meta)
                    recorded = False
                    with self._cond:
                        self.stats.result_bytes_wire += wire_len
                        self.stats.result_bytes_raw += raw_len
                        if conn.inflight == (job_id, chunk_id):
                            conn.inflight = None
                            # Round trip complete: fold dispatch→result
                            # wall clock into this worker's throughput
                            # EWMA (drives adaptive chunk sizing),
                            # counting only cells it actually computed.
                            # hits is an untrusted echo; clamp so a
                            # lying worker cannot push computed_cells
                            # negative.
                            state = conn.state
                            hits = cache_stats.hits if cache_stats is not None else 0
                            state.observe_result(
                                time.monotonic(),
                                state.dispatched_cells
                                - min(max(hits, 0), state.dispatched_cells),
                            )
                        # Frames from an aborted previous job are stale:
                        # recording them would graft old-plan cells into
                        # the new job, so they are discarded.
                        if self._scheduler.accepts(job_id):
                            # An echoed chunk id that was never part of
                            # the job must not be recorded: it would
                            # inflate the completion count so the job
                            # turns "done" with real chunks missing.
                            if not self._scheduler.valid_chunk(chunk_id):
                                raise ProtocolError(
                                    f"worker echoed unknown chunk id "
                                    f"{chunk_id!r} (job has "
                                    f"{len(self._scheduler.job.chunks)} chunks)"
                                )
                            recorded = self._scheduler.record(conn.wid, chunk_id, results)
                            if recorded:
                                # Counted in the same critical section
                                # that may turn the job "done": _run_job
                                # must not return before the observer
                                # has seen this chunk.
                                self._observing += 1
                                if not conn.used:
                                    conn.used = True
                                    self.stats.workers_used += 1
                                if cache_stats is not None:
                                    self.stats.worker_cache_hits += cache_stats.hits
                        self._cond.notify_all()
                    if recorded:
                        self.emit(
                            ChunkCompleted(
                                chunk_id=chunk_id,
                                cells=len(results),
                                where=f"worker-{conn.wid}",
                                cache=cache_stats,
                            )
                        )
                        self._observe_recorded(job_id, chunk_id, results)
                elif msg_type == MSG_ERROR:
                    if not isinstance(payload, dict):
                        raise ProtocolError(f"malformed ERROR payload: {payload!r}")
                    job_id = payload.get("job_id")
                    with self._cond:
                        if conn.inflight == (job_id, payload.get("chunk_id")):
                            conn.inflight = None
                        if self._scheduler.accepts(job_id):
                            self._scheduler.release(conn.wid)
                            self._scheduler.fail(payload)
                        self._cond.notify_all()
        except (ProtocolError, ConnectionError, OSError) as exc:
            reason = exc
        except Exception as exc:  # pragma: no cover - coordinator bug
            # Bugfix-sweep guarantee: even an unexpected exception in
            # this reader thread must funnel into the drop path with a
            # logged reason — a silently dead reader would leave the
            # coordinator waiting forever on this worker's chunk.
            _log.exception("worker-%d reader thread failed unexpectedly", conn.wid)
            reason = exc
        self._drop_worker(conn, reason)

    def _observe_recorded(
        self, job_id: Any, chunk_id: Any, results: List[Tuple[int, RunArtifacts]]
    ) -> None:
        """Feed a newly recorded chunk to the result observer (the
        result store's put). Runs outside the state lock — observer I/O
        must not stall result intake — and an observer failure fails the
        *job* loudly: silently losing durability would turn a later
        crash into data loss. The reader counted this call into
        ``_observing`` when it recorded the chunk; :meth:`_run_job`
        returns only once the count is back to zero, so the caller never
        swaps the observer out from under a store write."""
        failure: Optional[Dict[str, Any]] = None
        try:
            self.observe_results(results)
        except Exception as exc:
            _log.exception("result observer failed; aborting job %s", job_id)
            failure = {
                "job_id": job_id,
                "chunk_id": chunk_id,
                "error": f"result observer failed: {exc!r}",
                "traceback": traceback.format_exc(),
            }
        with self._cond:
            self._observing -= 1
            if failure is not None and self._scheduler.accepts(job_id):
                self._scheduler.fail(failure)
            self._cond.notify_all()

    def _drop_worker(self, conn: _WorkerConn, reason: Optional[BaseException]) -> None:
        lost = False
        drained = False
        requeue_chunk: Optional[int] = None
        with self._cond:
            if not conn.alive:
                return
            conn.alive = False
            self._workers.pop(conn.wid, None)
            self._scheduler.remove_worker(conn.wid)
            # Orderly shutdown is not a loss — including the race where
            # a worker acts on SHUTDOWN and closes its socket before
            # close() reaches its connection. Neither is a DRAIN-ed
            # departure.
            if not self._closed:
                if conn.state.draining:
                    drained = True
                    self.stats.workers_drained += 1
                elif reason is not None:
                    lost = True
                    self.stats.workers_lost += 1
            if isinstance(reason, ProtocolError):
                self.stats.protocol_errors += 1
            if conn.inflight is not None:
                job_id, chunk_id = conn.inflight
                conn.inflight = None
                if self._scheduler.accepts(job_id) and self._scheduler.can_requeue(chunk_id):
                    # Deferred below the WorkerLost emit: the requeued
                    # twin's ChunkDispatched must order after it.
                    requeue_chunk = chunk_id
            self._cond.notify_all()
        if lost or drained:
            _log.info(
                "worker-%d %s (%s)%s",
                conn.wid,
                "drained" if drained else "lost",
                reason if reason is not None else "socket closed",
                f"; requeueing chunk {requeue_chunk}" if requeue_chunk is not None else "",
            )
        if lost:
            self.emit(
                WorkerLost(
                    worker_id=conn.wid,
                    requeued_chunks=1 if requeue_chunk is not None else 0,
                )
            )
        elif drained:
            self.emit(WorkerDrained(worker_id=conn.wid))
        if requeue_chunk is not None:
            with self._cond:
                if self._scheduler.requeue(requeue_chunk):
                    self.stats.chunks_requeued += 1
                self._cond.notify_all()
        for sock in (conn.sock, conn.wsock):
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass

    # -- public surface -------------------------------------------------

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def wait_for_workers(self, count: int, timeout: Optional[float] = None) -> None:
        """Block until ``count`` workers are connected."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        if self.stats.auth_failures:
                            raise WorkerAuthError(
                                f"timed out waiting for {count} worker(s) on "
                                f"{self.address}: {self.stats.auth_failures} "
                                "connection(s) failed the authentication "
                                "handshake — do coordinator and workers "
                                "share the same auth key?"
                            )
                        raise BackendError(
                            f"timed out waiting for {count} worker(s) on "
                            f"{self.address} (have {len(self._workers)})"
                        )
                self._cond.wait(timeout=remaining)

    def parallelism(self) -> int:
        # Chunk sizing samples this *before* run_chunks blocks on the
        # fleet, so wait for it to assemble here — otherwise chunks are
        # sized for however many workers happened to have dialed in,
        # and late connectors idle for the whole job. A fleet that never
        # assembles raises here, so the caller's --worker-timeout is one
        # deadline, not two back to back (run_chunks' own wait returns
        # immediately once this one has succeeded).
        self.wait_for_workers(self.min_workers, self.worker_wait_timeout)
        with self._lock:
            return max(self.min_workers, len(self._workers))

    def scale_hint(self) -> ScaleHint:
        """Advisory fleet-sizing summary from the scheduler: connected
        / busy / draining workers, outstanding cells, and the worker
        count that would keep the remaining work flowing at the fleet's
        observed throughput."""
        with self._lock:
            return self._scheduler.scale_hint()

        return True

    def run_chunks(self, chunks: Sequence[GroupedChunk]) -> List[Tuple[int, RunArtifacts]]:
        """Serve caller-sized chunks (the pinned-``chunk_size`` path)."""
        if not chunks:
            return []
        self._register_job(chunks=list(chunks))
        return self._run_job()

    def run_cells(
        self,
        cells: Sequence[IndexedCell],
        chunk_size: Optional[int] = None,
    ) -> List[Tuple[int, RunArtifacts]]:
        """Serve cells with adaptively sized per-worker chunks.

        An explicit ``chunk_size`` falls back to fixed slicing via the
        base implementation. Otherwise the cell pool stays un-chunked
        on the coordinator and each idle worker's next chunk is carved
        by the scheduler from its EWMA throughput and its share of the
        remaining pool among the idle workers.
        """
        if chunk_size is not None:
            return super().run_cells(cells, chunk_size)
        if not cells:
            return []
        # The first chunks predate any throughput signal: deal each
        # assembled worker a conservative quarter-share (the scheduler
        # clamps it to its cell bounds) so the EWMA gets a sample
        # quickly without front-loading a slow worker.
        slots = self.parallelism()
        initial = -(-len(cells) // (slots * 4))
        self._register_job(pool=list(cells), initial_chunk_cells=initial)
        return self._run_job()

    def _register_job(self, **job_kwargs: Any) -> None:
        if self._closed:
            raise BackendError("backend is closed")
        with self._cond:
            self._job_seq += 1
            self._scheduler.start_job(self._job_seq, **job_kwargs)

    def _run_job(self) -> List[Tuple[int, RunArtifacts]]:
        try:
            self.wait_for_workers(self.min_workers, self.worker_wait_timeout)
            while True:
                self._dispatch()
                with self._cond:
                    job = self._scheduler.job
                    if job.failure is not None:
                        if isinstance(job.failure.get("exception"), ObserveError):
                            raise job.failure["exception"]
                        raise BackendError(
                            "remote worker failed on chunk "
                            f"{job.failure.get('chunk_id')}: "
                            f"{job.failure.get('error')}\n"
                            f"{job.failure.get('traceback', '')}"
                        )
                    if job.done() and not self._observing:
                        return job.results_in_order()
                    if not self._workers and not job.done():
                        # Every worker is gone with work outstanding;
                        # give replacements one full wait window to dial
                        # in. Looped on a deadline: an unrelated notify
                        # (a second worker's drop, a stale frame) must
                        # not consume the window and abort early.
                        deadline = time.monotonic() + self.worker_wait_timeout
                        while not self._workers and not job.done():
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                raise BackendError(
                                    "all workers lost with "
                                    f"{job.outstanding_cells()} "
                                    "cell(s) outstanding and none "
                                    "reconnected"
                                )
                            self._cond.wait(timeout=remaining)
                        continue
                    self._cond.wait(timeout=0.25)
        finally:
            with self._cond:
                self._scheduler.finish_job()

    def _dispatch(self) -> None:
        """Hand pending chunks to idle workers (sends happen outside
        the state lock so a slow socket never stalls result intake)."""
        while True:
            batch: List[Tuple[_WorkerConn, Assignment]] = []
            job_id: Optional[int] = None
            with self._cond:
                job = self._scheduler.job
                if job is None:
                    return
                job_id = job.job_id
                try:
                    for conn in list(self._workers.values()):
                        if not conn.alive or conn.inflight is not None or conn.state.draining:
                            continue
                        assignment = self._scheduler.assign(conn.wid, time.monotonic())
                        if assignment is None:
                            break
                        conn.inflight = (job_id, assignment.chunk_id)
                        batch.append((conn, assignment))
                except BackendError:
                    # Poison-chunk abort mid-batch: nothing in this
                    # batch was sent yet, so un-assign it all — a stuck
                    # inflight would exclude those workers from every
                    # later job on a reused backend.
                    self._unassign_locked(batch)
                    raise
            if not batch:
                return
            for sent, (conn, assignment) in enumerate(batch):
                # The round trip is timed per worker from just before
                # its own send — pickling and transfer included, so a
                # slow link lowers the observed rate like a slow CPU —
                # not from batch-assignment time, which would charge
                # every later worker for earlier workers' serial sends.
                with self._cond:
                    self._scheduler.mark_send(conn.wid, time.monotonic())
                try:
                    wire_len, raw_len = send_frame(
                        conn.wsock,
                        MSG_CHUNK,
                        (job_id, assignment.chunk_id, assignment.chunk, LEVEL.value),
                        lock=conn.send_lock,
                        size_aware_timeout=True,
                    )
                except ProtocolError as exc:
                    # An oversized outgoing chunk is deterministic — it
                    # would fail on every worker, so requeueing it whole
                    # would tear the fleet down one requeue at a time.
                    # The scheduler splits it in half instead (also
                    # halving this worker's EWMA-derived sizing) and
                    # dispatch continues; only a chunk already down to
                    # one cell aborts, with the cell spelled out so the
                    # suite layer can name the experiment it belongs to.
                    with self._cond:
                        conn.inflight = None
                        handled = self._scheduler.split_oversized(conn.wid, assignment)
                        if handled:
                            self.stats.chunks_requeued += 1
                        self._unassign_locked(batch[sent + 1 :])
                        self._cond.notify_all()
                    if not handled:
                        error = BackendError(
                            f"chunk {assignment.chunk_id} "
                            f"({assignment.cells} cell(s)) cannot be "
                            f"dispatched even at minimum size: {exc}"
                        )
                        error.poison_cells = tuple(
                            (scenario, seed)
                            for scenario, pairs in assignment.chunk
                            for _index, seed in pairs
                        )
                        raise error from exc
                    break
                except OSError as exc:
                    self._drop_worker(conn, exc)
                    continue
                with self._cond:
                    self.stats.chunks_dispatched += 1
                    if assignment.speculative:
                        self.stats.chunks_speculated += 1
                    self.stats.chunk_bytes_wire += wire_len
                    self.stats.chunk_bytes_raw += raw_len
                if assignment.speculative:
                    self.emit(
                        ChunkSpeculated(
                            chunk_id=assignment.chunk_id,
                            cells=assignment.cells,
                            where=f"worker-{conn.wid}",
                        )
                    )
                self.emit(
                    ChunkDispatched(
                        chunk_id=assignment.chunk_id,
                        cells=assignment.cells,
                        where=f"worker-{conn.wid}",
                    )
                )

    def _unassign_locked(self, batch: Sequence[Tuple[_WorkerConn, Assignment]]) -> None:
        """Roll back assignments whose CHUNK frame was never sent
        (caller holds the lock; no RESULT/ERROR will ever clear them)."""
        for conn, assignment in batch:
            conn.inflight = None
            self._scheduler.unassign(conn.wid, assignment)

    def close(self) -> None:
        """Shut down: stop accepting, tell workers to exit, drop state."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best effort
            pass
        for conn in workers:
            try:
                send_frame(
                    conn.wsock,
                    MSG_SHUTDOWN,
                    None,
                    lock=conn.send_lock,
                    size_aware_timeout=True,
                )
            except (ProtocolError, OSError):
                pass
        for conn in workers:
            self._drop_worker(conn, None)
