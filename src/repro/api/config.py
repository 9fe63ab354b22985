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

import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import BackendError
from repro.runtime.backend import ExecutionBackend, LocalBackend
from repro.runtime.distributed import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_WORKER_WAIT_TIMEOUT,
    SocketBackend,
)

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
    session closes. ``workers=None`` picks the CPU count, capped at 8
    to keep fork storms bounded.
    """

    name = "local"

    workers: Optional[int] = 0

    def create(self) -> ExecutionBackend:
        if self.workers is not None and self.workers < 0:
            raise BackendError("LocalConfig.workers must be >= 0 (or None for auto)")
        workers = min(8, os.cpu_count() or 1) if self.workers is None else self.workers
        return LocalBackend(workers)


@dataclass(frozen=True)
class DistributedConfig(BackendConfig):
    """Coordinate ``python -m repro worker`` processes over TCP.

    ``listen=0`` picks an ephemeral port (read it back from
    :attr:`repro.api.Session.address`). Binding a non-loopback
    ``bind`` address requires ``auth_key`` — the wire protocol carries
    pickled payloads, so every connection is gated behind a mutual
    HMAC handshake when a key is set. ``auth_key`` accepts ``str`` or
    ``bytes``.

    Each worker's next chunk is sized from its observed throughput and
    its share of the cells still un-carved (see
    :class:`~repro.runtime.scheduler.ChunkScheduler`), and frame bodies
    above 4 KiB ship zlib-compressed; result bundles are byte-identical
    however the work was carved and shipped.
    """

    name = "distributed"

    listen: int = 0
    bind: str = "127.0.0.1"
    min_workers: int = 1
    worker_timeout: float = DEFAULT_WORKER_WAIT_TIMEOUT
    auth_key: Optional[Union[str, bytes]] = None
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT

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
            )
        except (ValueError, OSError) as exc:
            raise BackendError(f"cannot start distributed backend: {exc}") from exc
