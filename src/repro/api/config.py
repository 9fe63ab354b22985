"""Typed execution-backend configurations for :class:`repro.api.Session`.

Where a run executes was previously CLI plumbing (``--backend
--listen --bind --min-workers ...`` threaded by hand into
:class:`~repro.runtime.distributed.SocketBackend`). A
:class:`BackendConfig` captures the same decision as a picklable,
comparable dataclass any embedding caller can construct:

* :class:`LocalConfig` — this machine; ``workers=0`` is the serial
  in-process reference path, ``workers>=2`` a process pool.
* :class:`DistributedConfig` — a TCP coordinator serving chunks to
  ``python -m repro worker`` processes on any number of hosts.

``config.create()`` materializes the one
:class:`~repro.runtime.backend.ExecutionBackend` a session owns from
its constructor to ``close()`` and runs every suite, scan and
repetition sweep on; configuration mistakes surface as
:class:`~repro.errors.BackendError` rather than assorted builtins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import BackendError
from repro.runtime.backend import ExecutionBackend, LocalBackend
from repro.runtime.distributed import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_WORKER_WAIT_TIMEOUT,
    SocketBackend,
)
from repro.runtime.matrix import default_workers
from repro.runtime.scheduler import (
    DEFAULT_MAX_CHUNK_CELLS,
    DEFAULT_MIN_CHUNK_CELLS,
    DEFAULT_TARGET_CHUNK_SECONDS,
)
from repro.runtime.wire import DEFAULT_COMPRESS_THRESHOLD

__all__ = ["BackendConfig", "DistributedConfig", "LocalConfig"]


@dataclass(frozen=True)
class BackendConfig:
    """Base class of every typed backend configuration."""

    #: CLI ``--backend`` spelling of this configuration.
    name = "backend"

    def create(self) -> ExecutionBackend:
        """Materialize the runtime backend this config describes.
        Invalid configurations raise
        :class:`~repro.errors.BackendError`."""
        raise NotImplementedError


@dataclass(frozen=True)
class LocalConfig(BackendConfig):
    """Execute on this machine.

    ``workers=0`` (default) runs cells serially in-process — the
    deterministic reference path, scans included. ``workers>=2`` fans
    chunks out over a process pool made on first use and kept until the
    session closes. ``workers=None`` lets the runtime pick from the
    CPU count.
    """

    name = "local"

    workers: Optional[int] = 0

    def create(self) -> ExecutionBackend:
        if self.workers is not None and self.workers < 0:
            raise BackendError("LocalConfig.workers must be >= 0 (or None for auto)")
        return LocalBackend(default_workers() if self.workers is None else self.workers)


@dataclass(frozen=True)
class DistributedConfig(BackendConfig):
    """Coordinate ``python -m repro worker`` processes over TCP.

    ``listen=0`` picks an ephemeral port (read it back from
    :attr:`repro.api.Session.address`). Binding a non-loopback
    ``bind`` address requires ``auth_key`` — the wire protocol carries
    pickled payloads, so every connection is gated behind a mutual
    HMAC handshake when a key is set. ``auth_key`` accepts ``str`` or
    ``bytes``.

    ``adaptive_chunks`` (default on) sizes each worker's next chunk
    from its observed throughput — at most ``target_chunk_seconds`` of
    wall clock per chunk and at most the worker's rate-proportional
    share of the cells still un-carved among the idle workers, clamped
    to ``[min_chunk_cells, max_chunk_cells]`` — so fast workers stop
    starving behind fleet-average chunks, slow links stop receiving
    oversize ones, and a pool smaller than one time budget is still
    spread over the whole fleet. Set
    ``min_chunk_cells == max_chunk_cells`` to pin a fixed size, or
    ``adaptive_chunks=False`` for the historical ~2-chunks-per-worker
    slicing. Result bundles are byte-identical either way.

    ``compression`` picks the protocol-v4 data-frame codec per
    connection: ``"auto"`` (default — the best codec the worker
    advertised at HELLO, zlib in a stock install), ``"off"``, or a
    specific codec name (``"zlib"`` / ``"zstd"``), falling back to raw
    when the peer cannot decode it. Frames smaller than
    ``compress_threshold`` bytes always ship raw. Compression changes
    wire bytes only — result bundles stay byte-identical.
    """

    name = "distributed"

    listen: int = 0
    bind: str = "127.0.0.1"
    min_workers: int = 1
    worker_timeout: float = DEFAULT_WORKER_WAIT_TIMEOUT
    auth_key: Optional[Union[str, bytes]] = None
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    adaptive_chunks: bool = True
    min_chunk_cells: int = DEFAULT_MIN_CHUNK_CELLS
    max_chunk_cells: int = DEFAULT_MAX_CHUNK_CELLS
    target_chunk_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS
    compression: str = "auto"
    compress_threshold: int = DEFAULT_COMPRESS_THRESHOLD

    def key_bytes(self) -> Optional[bytes]:
        if self.auth_key is None:
            return None
        if isinstance(self.auth_key, str):
            return self.auth_key.encode()
        return bytes(self.auth_key)

    def create(self) -> ExecutionBackend:
        try:
            return SocketBackend(
                host=self.bind,
                port=self.listen,
                min_workers=self.min_workers,
                worker_wait_timeout=self.worker_timeout,
                auth_key=self.key_bytes(),
                heartbeat_timeout=self.heartbeat_timeout,
                max_frame_bytes=self.max_frame_bytes,
                adaptive_chunks=self.adaptive_chunks,
                min_chunk_cells=self.min_chunk_cells,
                max_chunk_cells=self.max_chunk_cells,
                target_chunk_seconds=self.target_chunk_seconds,
                compression=self.compression,
                compress_threshold=self.compress_threshold,
            )
        except (ValueError, OSError) as exc:
            raise BackendError(f"cannot start distributed backend: {exc}") from exc
