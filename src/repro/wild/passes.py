"""Scan and study passes: the §5 measurement campaign as task cells.

Table 1, Fig. 8 and Fig. 10 read one Sao Paulo scan and Fig. 9 is a
panel of Fig. 15, so a pass — one toplist scan from one vantage point
on one day, or one location's Cloudflare study — is a task cell (see
:func:`repro.runtime.artifacts.execute_cell`), deterministic in
``task_key()`` and the cell's seed: the suite planner dedupes passes
across experiments and they run on the session's backend and
cache. An experiment's ``observe`` reduces a pass to its table's
numbers in the process that ran it; the probe list never leaves it.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Any, List, Tuple

from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.wild.cloudflare import CloudflareLongitudinalStudy, filter_valid
from repro.wild.qscanner import QScanner, scan_with_engine
from repro.wild.tranco import quic_domains
from repro.wild.vantage import vantage

#: Bump when what a pass measures changes — part of task_key, so cached
#: observations of older code never serve a newer suite.
PASS_CODE_VERSION = 1


@dataclass(slots=True)
class PassOutcome(RunArtifacts):
    """What a pass measured — the ``ProbeResult`` s of a scan, the valid
    ``LongitudinalSample`` s of a study — as the :class:`RunArtifacts`
    an ``observe`` is handed; the simulator's fields are ``None``."""

    records: List[Any] = field(default_factory=list, repr=False)


class _Pass:
    """Task-cell identity and packaging, shared by both pass kinds."""

    def task_key(self) -> Tuple[Any, ...]:
        return (type(self).__name__, PASS_CODE_VERSION, *astuple(self))

    def execute_task(self, seed: int, level: ArtifactLevel, runner: Any = None) -> PassOutcome:
        return PassOutcome(None, seed, level, None, None, 0.0, records=self.measure(seed))


@dataclass(frozen=True)
class ScanPass(_Pass):
    """One QScanner pass over the QUIC-answering domains of the
    ``list_size`` toplist; the cell's seed seeds list and probes."""

    list_size: int
    vantage_name: str
    day: int = 0
    engine: str = "analytic"

    def describe(self) -> str:
        return (
            f"{self.engine} scan of {self.list_size} domains "
            f"from {self.vantage_name}, day {self.day}"
        )

    def measure(self, seed: int) -> List[Any]:
        scanner = QScanner(vantage(self.vantage_name), seed=seed)
        domains = quic_domains(self.list_size, seed)
        return scan_with_engine(scanner, domains, day=self.day, engine=self.engine)


@dataclass(frozen=True)
class StudyPass(_Pass):
    """One location's Cloudflare study over ``days``; ``outages`` are
    ``(start, stop)`` minute ranges without samples."""

    vantage_name: str
    days: int
    outages: Tuple[Tuple[int, int], ...] = ()

    def describe(self) -> str:
        return f"{self.days}-day Cloudflare study from {self.vantage_name}"

    def measure(self, seed: int) -> List[Any]:
        study = CloudflareLongitudinalStudy(vantage(self.vantage_name), seed=seed)
        gaps = (minute for start, stop in self.outages for minute in range(start, stop))
        return filter_valid(study.run(minutes=self.days * 24 * 60, outage_minutes=gaps))
