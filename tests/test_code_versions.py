"""A code change is a cold miss, never a wrong hit.

The result store serves warm reruns and crashed runs started again
alike, keyed by value identity plus three hand-bumped version
constants. Each constant is pinned here to a digest of what it
guards, so a change to what a cell, a wild pass or a scan shard
computes cannot land without its bump:

* :data:`~repro.runtime.disk_cache.CELL_CODE_VERSION` — the 512-cell
  sample golden plus the observed value of every observing spec's
  smoke cells (an ``observe`` is cached under its qualname only);
* :data:`~repro.wild.passes.PASS_CODE_VERSION` — the records of every
  smoke ``ScanPass`` / ``StudyPass``;
* :data:`~repro.wild.stream.shard.SHARD_CODE_VERSION` — the sketches
  of a 2-shard synthetic scan.

When one of these fails after a deliberate change: bump the version,
then re-pin the digest the failure prints.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.registry import REGISTRY
from repro.runtime.artifacts import ArtifactLevel, ObservedCell
from repro.runtime.disk_cache import CELL_CODE_VERSION
from repro.runtime.suite import SuiteRunner
from repro.wild.passes import PASS_CODE_VERSION
from repro.wild.stream.shard import SHARD_CODE_VERSION, ShardProbeTask
from repro.wild.stream.source import shard_ranges, source_from_spec

SAMPLE = Path(__file__).resolve().parent / "golden" / "cells-sample.json"

#: ``(version, digest)`` as last pinned.
CELL_PIN = (2, "141fb001dfe72e99d013dfb18ceca4357e77270b8e3b619a3a68926f9e64f3ee")
PASS_PIN = (1, "715dc74caad5bf81292f0899d127cd7c2928ffd9d12e3f709c9b2635587a9c64")
SHARD_PIN = (1, "4480c4a4fc2c5e146f9cb13ab93a107ca9a7e4401e74cea13eab87252331ccd3")


def check_pin(name, version, digest, pin):
    assert (version, digest) == pin, (
        f"what {name} guards changed (digest {digest}) or the version moved "
        f"without a re-pin: bump the version, then re-pin ({name}, digest) here"
    )


@pytest.fixture(scope="module")
def observed_smoke_cells():
    """Every observed cell that planning the observing specs at smoke
    dispatches, in plan order."""
    observing = [spec.id for spec in REGISTRY.specs() if spec.observe is not None]
    plan = SuiteRunner().plan(observing, smoke=True)
    cells = [cell for cell in plan.dispatch_cells if isinstance(cell.scenario, ObservedCell)]
    assert cells
    return cells


def test_cell_code_version_is_pinned_to_what_a_cell_computes(observed_smoke_cells):
    digest = hashlib.sha256(SAMPLE.read_bytes())
    for cell in observed_smoke_cells:
        observed = cell.scenario.execute_task(cell.seed, ArtifactLevel.STATS).observed
        digest.update(repr(observed).encode("utf-8"))
    check_pin("CELL_CODE_VERSION", CELL_CODE_VERSION, digest.hexdigest(), CELL_PIN)


def test_pass_code_version_is_pinned_to_what_a_pass_measures(observed_smoke_cells):
    digest = hashlib.sha256()
    passes = 0
    for cell in observed_smoke_cells:
        task = cell.scenario.scenario
        if hasattr(task, "execute_task"):
            passes += 1
            records = task.execute_task(cell.seed, ArtifactLevel.STATS).records
            digest.update(repr(records).encode("utf-8"))
    assert passes == 8
    check_pin("PASS_CODE_VERSION", PASS_CODE_VERSION, digest.hexdigest(), PASS_PIN)


def test_shard_code_version_is_pinned_to_what_a_shard_sketches():
    source = {"kind": "synthetic", "count": 2000, "seed": 3}
    digest = hashlib.sha256()
    ranges = shard_ranges(source_from_spec(source).size, 1000)
    assert len(ranges) == 2
    for index, (start, stop) in enumerate(ranges):
        task = ShardProbeTask(
            source_spec=source,
            start=start,
            stop=stop,
            shard_index=index,
            vantage_names=("Hamburg", "Sao Paulo"),
            days=2,
            probe_seed=0,
        )
        sketch = task.execute_task(0, ArtifactLevel.STATS).sketch
        digest.update(json.dumps(sketch.to_dict(), sort_keys=True).encode("utf-8"))
    check_pin("SHARD_CODE_VERSION", SHARD_CODE_VERSION, digest.hexdigest(), SHARD_PIN)
