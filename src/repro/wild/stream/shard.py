"""Shard probe tasks — scan work shaped like runtime cells.

The streaming pipeline ships no new wire protocol: a shard is
dispatched as an ordinary cell ``(shard_index, ShardProbeTask, seed)``
through whichever :class:`~repro.runtime.backend.ExecutionBackend` the
session runs — process pool or authenticated socket fleet — and every
runtime feature (scheduler requeue, elastic membership, worker result
cache, durable disk cache) applies unchanged. Two small duck-typed hooks make that work:

* :meth:`ShardProbeTask.execute_task` — recognized by
  :func:`repro.runtime.artifacts.execute_cell` in place of a simulator
  run;
* :meth:`ShardProbeTask.task_key` — recognized by
  :func:`repro.runtime.cache.scenario_key` as the task's value
  identity, keying both the worker memo and the durable disk cache.

A task carries only its source *spec* and rank range (a few hundred
bytes); the worker regenerates its targets locally, probes every
``vantage × day`` pass, and folds everything into one
:class:`~repro.wild.stream.sketch.ScanSketch` returned inside a
:class:`ShardOutcome`. Peak worker memory is O(shard size); nothing
proportional to the full target count exists anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, Optional, Set, Tuple

from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.wild.qscanner import QScanner, scan_batch
from repro.wild.stream.sketch import SKETCH_VERSION, ScanSketch
from repro.wild.stream.source import source_from_spec
from repro.wild.vantage import vantage

#: Bump when shard execution semantics change — part of task_key, so
#: cached outcomes from older code never serve a newer scan.
SHARD_CODE_VERSION = 1


@dataclass(slots=True)
class ShardOutcome(RunArtifacts):
    """One shard's merged sketch, dressed as :class:`RunArtifacts`.

    Subclassing keeps every artifacts consumer honest without special
    cases: the disk cache pickles it and its ``isinstance`` guard
    accepts it, and the wire ships it like any
    other cell result. The simulator-only fields ride along as
    ``None``.
    """

    sketch: Optional[ScanSketch] = field(default=None, repr=False)
    shard_index: int = -1
    shard_targets: int = 0


@dataclass(frozen=True)
class ShardProbeTask:
    """One rank-range's probe workload (all vantage × day passes).

    Frozen and tiny: the wire form is the source spec plus scalars.
    Execution is deterministic in ``task_key()`` — the analytic engine
    keys every probe rng by ``(seed, vantage, day, domain)``, so a
    shard's sketch is independent of worker, arrival order, and
    sharding geometry.
    """

    source_spec: Dict[str, Any]
    start: int
    stop: int
    shard_index: int
    vantage_names: Tuple[str, ...]
    days: int
    probe_seed: int
    probe_engine: str = "analytic"
    alpha: float = 0.01

    def task_key(self) -> Tuple[Any, ...]:
        """Value identity for the runtime caches (see
        :func:`repro.runtime.cache.scenario_key`)."""
        return (
            "wild-stream-shard",
            SHARD_CODE_VERSION,
            SKETCH_VERSION,
            tuple(sorted(self.source_spec.items())),
            self.start,
            self.stop,
            self.vantage_names,
            self.days,
            self.probe_seed,
            self.probe_engine,
            self.alpha,
        )

    def execute_task(self, seed: int, level: ArtifactLevel, runner: Any = None) -> ShardOutcome:
        """Probe the shard and fold it into a sketch (worker-side
        entry, called by :func:`~repro.runtime.artifacts.execute_cell`;
        ``runner`` is the simulator's and unused by a scan)."""
        started = time.perf_counter()
        source = source_from_spec(self.source_spec)
        sketch = ScanSketch(alpha=self.alpha)
        # Materializing the shard (never the list) keeps the batch
        # engine's one-rng-per-pass stream intact across passes.
        targets = list(source.iter_range(self.start, self.stop))
        quic_targets = [domain for domain in targets if domain.answers_quic]
        sketch.observe_targets(len(targets), [domain.cdn._value_ for domain in quic_targets])
        batch = scan_batch(self.probe_engine)
        #: domain name → cdn value, and the names with IACK observed in
        #: any pass.
        cdn_of: Dict[str, str] = {}
        iack_any: Set[str] = set()
        for vantage_name in self.vantage_names:
            scanner = QScanner(vantage(vantage_name), seed=self.probe_seed)
            for day in range(self.days):
                probes = list(scanner.sample(quic_targets, day, batch))
                if not probes:
                    continue
                domains, cdns, rtts, iacks, coalesced, delays, fields = zip(*probes)
                cdn_values = [cdn._value_ for cdn in cdns]
                sketch.observe_pass(
                    vantage_name, day, cdn_values, rtts, iacks, coalesced, delays, fields
                )
                names = [domain.name for domain in domains]
                cdn_of.update(zip(names, cdn_values))
                iack_any.update(compress(names, iacks))
        for name, cdn_value in cdn_of.items():
            sketch.observe_domain_iack(cdn_value, name in iack_any)
        return ShardOutcome(
            scenario=None,
            seed=seed,
            level=level,
            client_stats=None,
            server_stats=None,
            duration_ms=(time.perf_counter() - started) * 1000.0,
            sketch=sketch,
            shard_index=self.shard_index,
            shard_targets=len(targets),
        )
