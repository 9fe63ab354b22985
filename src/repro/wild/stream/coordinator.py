"""The streaming scan coordinator: flat memory, any backend, crash-safe.

:class:`StreamCoordinator` turns a :class:`ScanRequest` into shard
tasks and hands them to :func:`~repro.runtime.workloop.run_work` — the
loop a suite's cells go through — with a bounded *window*: at most
twice the backend's parallelism of shards are in flight or buffered
at any moment, and a completed shard's
:class:`~repro.wild.stream.sketch.ScanSketch` is
merged into the running total and dropped. Coordinator memory is
O(window x sketch) + O(shard count x one task descriptor) —
independent of the target count, which is what lets one process drive
a million-target scan with the same RSS as a hundred-thousand-target
one.

Durability is the loop's: the content-addressed
:class:`~repro.runtime.disk_cache.DiskResultCache` is consulted per
shard before dispatch and fed each shard as it completes, so a re-scan
over unchanged targets is served from disk, and ``repro scan
--cache-dir DIR`` started again after a coordinator SIGKILL executes
only the shards that were not stored — because sketch merge is exactly
order-independent, its summary is byte-identical to an uninterrupted
run's.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidOverride
from repro.runtime.artifacts import RunArtifacts
from repro.runtime.backend import ExecutionBackend
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.events import (
    EventSink,
    ScanCompleted,
    ShardCompleted,
    ShardDispatched,
    emit,
)
from repro.runtime.workloop import run_work, work_items
from repro.wild.stream.shard import SHARD_CODE_VERSION, ShardOutcome, ShardProbeTask
from repro.wild.stream.sketch import DEFAULT_ALPHA, SKETCH_VERSION, ScanSketch
from repro.wild.stream.source import checked, shard_ranges, source_from_spec
from repro.wild.vantage import VANTAGE_POINTS

__all__ = [
    "ScanReport",
    "ScanRequest",
    "StreamCoordinator",
    "scan_fingerprint",
]

#: Default targets per shard: big enough that dispatch overhead
#: amortizes, small enough that a shard's probe lists stay cheap on a
#: worker and a killed scan loses little.
DEFAULT_SHARD_SIZE = 5_000

PROBE_ENGINES = ("analytic", "batch")


@dataclass(frozen=True)
class ScanRequest:
    """Everything that identifies one streaming scan.

    ``source`` is a :meth:`~repro.wild.stream.source.TargetSource.spec`
    document (JSON-safe), so requests cross the service wire as-is.
    """

    source: Dict[str, Any]
    shard_size: int = DEFAULT_SHARD_SIZE
    vantage_names: Optional[Tuple[str, ...]] = None
    days: int = 1
    seed: int = 0
    probe_engine: str = "analytic"
    alpha: float = DEFAULT_ALPHA

    def validated(self) -> "ScanRequest":
        source_from_spec(self.source)  # raises InvalidOverride on bad specs
        if self.shard_size <= 0:
            raise InvalidOverride("shard size must be positive")
        if self.days <= 0:
            raise InvalidOverride("a scan needs at least one day")
        if self.probe_engine not in PROBE_ENGINES:
            raise InvalidOverride(
                f"unknown probe engine {self.probe_engine!r}; expected one of {PROBE_ENGINES}"
            )
        for name in self.resolved_vantages():
            if name not in VANTAGE_POINTS:
                raise InvalidOverride(
                    f"unknown vantage point {name!r}; expected one of {sorted(VANTAGE_POINTS)}"
                )
        if not 0.0 < self.alpha < 1.0:
            raise InvalidOverride("sketch alpha must be in (0, 1)")
        return self

    def resolved_vantages(self) -> Tuple[str, ...]:
        if self.vantage_names is None:
            return tuple(sorted(VANTAGE_POINTS))
        return tuple(self.vantage_names)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": dict(self.source),
            "shard_size": self.shard_size,
            "vantage_names": (
                None if self.vantage_names is None else list(self.vantage_names)
            ),
            "days": self.days,
            "seed": self.seed,
            "probe_engine": self.probe_engine,
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ScanRequest":
        """Read a :meth:`to_dict` document, refusing what it would not
        have written: an unknown key, or a value of the wrong type (no
        ``int("2.7")``-style coercion)."""
        if not isinstance(doc, dict) or not isinstance(doc.get("source"), dict):
            raise InvalidOverride("scan request document needs a 'source' spec dict")
        unknown = sorted(set(doc) - set(_FIELDS))
        if unknown:
            raise InvalidOverride(f"scan request has unknown key(s) {unknown}")
        vantages = doc.get("vantage_names")
        if vantages is not None:
            if not isinstance(vantages, (list, tuple)) or not all(
                isinstance(v, str) for v in vantages
            ):
                raise InvalidOverride(
                    f"scan request 'vantage_names' must be a list of names, got {vantages!r}"
                )
            vantages = tuple(vantages)
        return cls(
            source=dict(doc["source"]),
            shard_size=_field(doc, "shard_size", int),
            vantage_names=vantages,
            days=_field(doc, "days", int),
            seed=_field(doc, "seed", int),
            probe_engine=_field(doc, "probe_engine", str),
            alpha=float(_field(doc, "alpha", (int, float))),
        ).validated()


#: Each :class:`ScanRequest` field's default, by name.
_FIELDS = {name: spec.default for name, spec in ScanRequest.__dataclass_fields__.items()}


def _field(doc: Dict[str, Any], name: str, kind: Any) -> Any:
    """``doc[name]``, or the field's default, when it is a ``kind``."""
    return checked(doc.get(name, _FIELDS[name]), kind, f"scan request {name!r}")


def scan_fingerprint(request: ScanRequest) -> str:
    """Content-address one scan: everything that determines its
    summary, including the sketch and shard code versions."""
    doc = {
        "kind": "wild-stream-scan",
        "shard_code_version": SHARD_CODE_VERSION,
        "sketch_version": SKETCH_VERSION,
        "source": request.source,
        "shard_size": request.shard_size,
        "vantage_names": list(request.resolved_vantages()),
        "days": request.days,
        "seed": request.seed,
        "probe_engine": request.probe_engine,
        "alpha": request.alpha,
    }
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass
class ScanReport:
    """The result of one streaming scan.

    :meth:`summary` is deterministic in the scan identity and merged
    sketch — two scans of the same request render byte-identical JSON
    regardless of sharding interleave, crash history, or cache hits.
    The execution :meth:`accounting` (what ran vs. what was served from
    the cache, wall time) deliberately lives outside the summary.
    """

    request: ScanRequest
    sketch: ScanSketch
    total_shards: int
    executed_shards: int = 0
    cached_shards: int = 0
    duration_s: float = 0.0
    fingerprint: str = ""

    def summary(self) -> Dict[str, Any]:
        return {
            "scan": {
                "fingerprint": self.fingerprint,
                "source": dict(self.request.source),
                "shard_size": self.request.shard_size,
                "shards": self.total_shards,
                "vantage_names": list(self.request.resolved_vantages()),
                "days": self.request.days,
                "seed": self.request.seed,
                "probe_engine": self.request.probe_engine,
            },
            "sketch": self.sketch.summary(),
        }

    def accounting(self) -> Dict[str, Any]:
        return {
            "executed_shards": self.executed_shards,
            "cached_shards": self.cached_shards,
            "duration_s": round(self.duration_s, 3),
            "fingerprint": self.fingerprint,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        doc = self.summary()
        lines = [
            f"scan {doc['scan']['source']['kind']}: "
            f"{self.sketch.targets} targets, {self.sketch.quic_targets} QUIC, "
            f"{self.sketch.probes} probes "
            f"({len(doc['scan']['vantage_names'])} vantages x {self.request.days} days)",
            f"shards: {self.total_shards} total, {self.executed_shards} executed, "
            f"{self.cached_shards} disk-cached in {self.duration_s:.1f}s",
            "",
            f"{'CDN':<12} {'domains':>9} {'IACK':>9} {'share %':>8}",
        ]
        for cdn_value, row in doc["sketch"]["cdns"].items():
            lines.append(
                f"{cdn_value:<12} {row['domains']:>9} {row['iack_domains']:>9} "
                f"{row['share_pct']:>8.2f}"
            )
        lines.append("")
        lines.append(f"{'metric':<22} {'p50':>9} {'p90':>9} {'p99':>9} {'max':>9}")
        for metric, row in doc["sketch"]["metrics"].items():
            cells = [
                "-" if row[q] is None else f"{row[q]:.2f}" for q in ("p50", "p90", "p99", "max")
            ]
            lines.append(
                f"{metric:<22} {cells[0]:>9} {cells[1]:>9} {cells[2]:>9} {cells[3]:>9}"
            )
        return "\n".join(lines)


class StreamCoordinator:
    """Dispatches one scan over an execution backend in bounded waves.

    The coordinator does not own the backend — sessions hand theirs
    in — but it does own the scan's event flow. One
    coordinator instance runs one scan (:meth:`run` is not reentrant).
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        request: ScanRequest,
        *,
        disk_cache: Optional[DiskResultCache] = None,
        sink: Optional[EventSink] = None,
    ):
        self.backend = backend
        self.request = request.validated()
        self.disk_cache = disk_cache
        self.sink = sink
        self.fingerprint = scan_fingerprint(self.request)

    # -- shard plumbing -------------------------------------------------

    def _task(self, shard_index: int, start: int, stop: int) -> ShardProbeTask:
        return ShardProbeTask(
            source_spec=self.request.source,
            start=start,
            stop=stop,
            shard_index=shard_index,
            vantage_names=self.request.resolved_vantages(),
            days=self.request.days,
            probe_seed=self.request.seed,
            probe_engine=self.request.probe_engine,
            alpha=self.request.alpha,
        )

    # -- the scan -------------------------------------------------------

    def run(self) -> ScanReport:
        started = time.perf_counter()
        request = self.request
        ranges = shard_ranges(source_from_spec(request.source).size, request.shard_size)
        sketch = ScanSketch(alpha=request.alpha)
        done = 0

        def shard_event(event: Any, shard_index: int, **more: Any) -> None:
            start, stop = ranges[shard_index]
            fields = dict(shard_index=shard_index, targets=stop - start, total_shards=len(ranges))
            emit(self.sink, event(**fields, **more))

        def merge(shard_index: int, outcome: RunArtifacts, origin: str) -> None:
            nonlocal done
            held = outcome.sketch if isinstance(outcome, ShardOutcome) else None
            if not isinstance(held, ScanSketch) or held.version != SKETCH_VERSION:
                raise InvalidOverride(
                    f"shard {shard_index} returned "
                    f"{type(outcome).__name__}, not a usable ShardOutcome"
                )
            sketch.merge(held)
            done += 1
            shard_event(ShardCompleted, shard_index, completed_shards=done, source=origin)

        def dispatching(shard_indices: List[int]) -> None:
            for shard_index in shard_indices:
                shard_event(ShardDispatched, shard_index)

        counts = run_work(
            self.backend,
            work_items(
                (
                    (shard_index, self._task(shard_index, start, stop), request.seed)
                    for shard_index, (start, stop) in enumerate(ranges)
                ),
                self.disk_cache,
            ),
            merge,
            cache=self.disk_cache,
            # Two waves per slot: one running, one queued behind it.
            window=2 * max(1, self.backend.parallelism()),
            sink=self.sink,
            on_dispatch=dispatching,
        )
        report = ScanReport(
            request=request,
            sketch=sketch,
            total_shards=len(ranges),
            executed_shards=counts["executed"],
            cached_shards=counts["disk_cache"],
            duration_s=time.perf_counter() - started,
            fingerprint=self.fingerprint,
        )
        emit(
            self.sink,
            ScanCompleted(
                targets=sketch.targets,
                probes=sketch.probes,
                shards=len(ranges),
                executed_shards=report.executed_shards,
                cached_shards=report.cached_shards,
            ),
        )
        return report
