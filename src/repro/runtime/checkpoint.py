"""Crash-safe suite checkpointing: journal results, resume after a
coordinator crash.

A long suite run used to be all-or-nothing: worker loss was survivable
(chunks requeue), but killing the *coordinator* process — OOM, deploy,
power loss — lost every completed cell. :class:`SuiteCheckpoint` makes
the coordinator journal each batch of completed ``(cell index,
artifacts)`` pairs to disk as it arrives (via the execution backend's
result-observer hook), so a crashed run can be resumed with
``repro run --resume DIR`` / ``Session(resume=DIR)``: completed cells
are replayed from the journal and only the remainder is dispatched.
Because every cell is deterministic and results are reassembled by
index, a resumed run's bundle is byte-identical to an uninterrupted
one.

On-disk format (all writes same-directory-temp + ``os.replace``, so a
crash at any instant leaves each file either complete or absent)::

    DIR/checkpoint.json     identity manifest (see below)
    DIR/cells-000001.pkl    one journaled batch: [(index, artifacts)]
    DIR/cells-000002.pkl    ...

The manifest pins the checkpoint to one *planned suite* via
:func:`plan_fingerprint` — a SHA-256 over the resolved experiment ids
and parameters, the suite artifact level, the bundle schema version,
and the value identity of every planned unique cell. Resuming against
a directory whose fingerprint differs raises
:class:`~repro.errors.CheckpointError` instead of grafting a stale
run's results into a different suite. Cells whose scenarios defeat
value identity (custom loss patterns) are fingerprinted positionally:
they cannot collide across suites without the experiment ids, params,
or surrounding cell set differing too.

Segment indices are *plan-global* cell positions. Loading unions all
segments (later duplicates win; duplicates are bit-identical by
determinism), and journaling after a resume continues the segment
numbering, so a run can crash and resume any number of times.

One deliberate non-goal: cells served from an in-memory result cache
never pass through the observer and are simply recomputed on resume
(cheap by definition — they were cache hits).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError
from repro.runtime.artifacts import RunArtifacts
from repro.runtime.wire import compress_blob, decompress_blob
from repro.schema import BUNDLE_SCHEMA_VERSION

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "SuiteCheckpoint",
    "plan_fingerprint",
]

CHECKPOINT_SCHEMA_VERSION = 1
MANIFEST_NAME = "checkpoint.json"
_SEGMENT_RE = re.compile(r"^cells-(\d{6})\.pkl$")


def _atomic_write(path: str, data: bytes) -> None:
    """Same-directory temp + ``os.replace``: the file at ``path`` is
    always either the old content or the complete new content."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def plan_fingerprint(plan: Any) -> str:
    """Content-address one planned suite (see the module docs).

    Everything that determines the meaning of a cell index is
    covered: experiment ids and resolved params, artifact level,
    bundle schema version, and each unique cell's value identity in
    plan order.
    """
    from repro.runtime.suite import cell_key

    cells: List[str] = []
    # The cells as dispatched: an observed cell's key names its
    # observers, so a journal of one observer set (or of the trace-level
    # artifacts an older version shipped) never replays into another.
    for position, cell in enumerate(plan.dispatch_cells):
        key = cell_key(cell)
        cells.append(f"opaque:{position}" if key is None else repr(key))
    doc = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "artifact_level": plan.artifact_level.value,
        "experiments": [
            {"id": p.spec.id, "params": p.params} for p in plan.experiments
        ],
        "cells": cells,
    }
    payload = json.dumps(doc, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class SuiteCheckpoint:
    """One checkpoint directory: identity manifest + result journal.

    :meth:`record` is thread-safe (the distributed backend journals
    from its worker reader threads); loading and initialization happen
    on the suite thread before execution starts.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0

    # -- identity -------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def load_or_init(
        self, fingerprint: str, meta: Optional[Dict[str, Any]] = None
    ) -> Dict[int, RunArtifacts]:
        """Bind the directory to ``fingerprint`` and return the
        journaled results so far (plan-global index → artifacts).

        A fresh directory writes the manifest and returns ``{}``. A
        directory already holding a checkpoint for the *same* planned
        suite loads its journal. Anything else —
        another suite's checkpoint, an unreadable manifest, an unknown
        schema — raises :class:`~repro.errors.CheckpointError` rather
        than risking foreign results in this run.
        """
        path = self.manifest_path
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {path}: {exc}"
                ) from exc
            if not isinstance(manifest, dict) or (
                manifest.get("schema") != CHECKPOINT_SCHEMA_VERSION
            ):
                raise CheckpointError(
                    f"checkpoint manifest {path} has unsupported schema "
                    f"{manifest.get('schema') if isinstance(manifest, dict) else manifest!r} "
                    f"(this code reads schema {CHECKPOINT_SCHEMA_VERSION})"
                )
            if manifest.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"checkpoint in {self.directory!r} belongs to a different "
                    "planned suite (fingerprint mismatch) — resuming it would "
                    "graft foreign results into this run; use a fresh "
                    "directory or delete the stale checkpoint"
                )
            return self._load_journal()
        doc = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "meta": meta or {},
        }
        _atomic_write(
            path, json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
        )
        return {}

    # -- journal --------------------------------------------------------

    def _load_journal(self) -> Dict[int, RunArtifacts]:
        completed: Dict[int, RunArtifacts] = {}
        for name in sorted(os.listdir(self.directory)):
            match = _SEGMENT_RE.match(name)
            if match is None:
                continue  # manifest, .tmp leftovers of a crashed write
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as fh:
                    entries = pickle.loads(decompress_blob(fh.read()))
            except Exception as exc:
                # Atomic segment writes make this unreachable for a
                # crash; a genuinely corrupt file means the directory
                # was tampered with, which must fail loudly.
                raise CheckpointError(
                    f"corrupt checkpoint segment {path}: {exc!r}"
                ) from exc
            for index, artifacts in entries:
                completed[int(index)] = artifacts
            self._seq = max(self._seq, int(match.group(1)))
        return completed

    def record(self, entries: Sequence[Tuple[int, RunArtifacts]]) -> None:
        """Durably journal one batch of completed cells (atomic: a
        crash mid-write leaves the previous journal intact)."""
        if not entries:
            return
        with self._lock:
            self._seq += 1
            path = os.path.join(self.directory, f"cells-{self._seq:06d}.pkl")
            _atomic_write(
                path,
                compress_blob(
                    pickle.dumps(list(entries), protocol=pickle.HIGHEST_PROTOCOL)
                ),
            )
