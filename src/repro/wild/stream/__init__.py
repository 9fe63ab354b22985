"""Streaming wild-scan pipeline: millions of targets over the fleet.

The subsystem that turns the distributed runtime into a measurement
platform (ROADMAP "Planet-scale wild pipeline"): lazy
:class:`~repro.wild.stream.source.TargetSource` shards dispatched as
ordinary runtime cells, worker-side probing through
:class:`~repro.wild.qscanner.QScanner`, and exact order-independent
aggregation into :class:`~repro.wild.stream.sketch.ScanSketch`
summaries — with crash recovery and rescans served by the durable
disk cache of the existing runtime machinery. Entry points:
``Session.scan()``, ``repro scan``.
"""

from repro.wild.stream.coordinator import (
    DEFAULT_SHARD_SIZE,
    ScanReport,
    ScanRequest,
    StreamCoordinator,
    scan_fingerprint,
)
from repro.wild.stream.shard import SHARD_CODE_VERSION, ShardOutcome, ShardProbeTask
from repro.wild.stream.sketch import METRICS, SKETCH_VERSION, QuantileSketch, ScanSketch
from repro.wild.stream.source import (
    SyntheticSource,
    TargetSource,
    TrancoSource,
    shard_ranges,
    source_from_spec,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "METRICS",
    "QuantileSketch",
    "SHARD_CODE_VERSION",
    "SKETCH_VERSION",
    "ScanReport",
    "ScanRequest",
    "ScanSketch",
    "ShardOutcome",
    "ShardProbeTask",
    "StreamCoordinator",
    "SyntheticSource",
    "TargetSource",
    "TrancoSource",
    "scan_fingerprint",
    "shard_ranges",
    "source_from_spec",
]
