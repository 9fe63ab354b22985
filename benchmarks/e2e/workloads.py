"""The five workloads, driven through the public surfaces only:
``repro.api.Session``, ``ServiceClient`` and ``repro worker`` processes.

Each workload does the same fixed work every round, so rounds compare
with each other and a round's CPU seconds compare across commits. A
round checks its own outputs; what it finds wrong is counted, never
raised, so one bad bundle shows as a failed op and not as a crash.
Passing a :class:`tracing.Trace` to ``round`` attaches event sinks and
records spans; without one no observer is attached at all.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    DistributedConfig,
    JobStatus,
    LocalConfig,
    RunRequest,
    ScanRequest,
    ServiceClient,
    Session,
    load_result,
    load_suite,
)
from repro.service import ServiceDaemon, ServiceManager
from tracing import EventLog, Trace, now, suite_phases

#: At most ``nproc`` (2 on the reference box) worker processes each.
FLEET_WORKERS = 2
POOL_WORKERS = 2


@dataclass
class Round:
    """What one round did and what it found wrong."""

    work: int
    wall_s: float
    op_ms: List[float]
    digest: str
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (never beyond the sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def digest_files(files: Dict[str, str]) -> str:
    sha = hashlib.sha256()
    for name in sorted(files):
        sha.update(name.encode())
        sha.update(files[name].encode())
    return sha.hexdigest()


def compare_with_golden(files: Dict[str, str], golden_dir: Path, failures: List[str]) -> int:
    """Byte-compare every per-experiment bundle file with the golden
    smoke capture (``suite.json`` depends on the selection and is
    skipped); returns how many files were compared."""
    compared = 0
    for name, text in sorted(files.items()):
        if name == "suite.json":
            continue
        compared += 1
        golden = golden_dir / name
        if not golden.is_file():
            failures.append(f"no golden bundle for {name}")
        elif golden.read_text() != text:
            failures.append(f"{name} differs from {golden}")
    return compared


class Workload:
    """One workload: ``start``, any number of ``round`` calls, ``stop``.

    The process sits in a scratch directory of its own while a workload
    lives (``measure.work_directory``), so every path here is relative."""

    name = ""

    def __init__(self, consts: Dict[str, Any], seed: int, root: str):
        self.consts = consts
        self.seed = seed
        self.golden_dir = Path(root) / "tests" / "golden" / "smoke"

    def start(self) -> None:
        raise NotImplementedError

    def round(self, trace: Optional[Trace] = None) -> Round:
        raise NotImplementedError

    def check_golden(self) -> Tuple[int, List[str]]:
        """Smoke bundles through this workload's own path against
        ``tests/golden/smoke``: ``(files compared, failures)``."""
        return 0, []

    def layer_metrics(self, trace: Trace) -> Dict[str, float]:
        """Per-layer metrics this workload owns, from its traced rounds."""
        return {}

    def stop(self) -> None:
        raise NotImplementedError


# -- suites: handshake_sweep, bulk_transfer, trace_fleet -----------------


class SuiteWorkload(Workload):
    """``Session.run`` + ``write_bundle`` of one fixed request."""

    ids: Tuple[str, ...] = ()

    def overrides(self) -> Dict[str, Dict[str, Any]]:
        raise NotImplementedError

    def make_session(self) -> Session:
        return Session(LocalConfig(workers=0))

    def start(self) -> None:
        self.session = self.make_session()
        overrides = self.overrides()
        for params in overrides.values():
            params["base_seed"] = self.seed
        self.request = RunRequest(self.ids, overrides=overrides)
        self.planned = len(self.session.plan(self.request).unique_cells)
        self.cell_gaps_ms: List[float] = []

    def round(self, trace: Optional[Trace] = None) -> Round:
        log = EventLog() if trace is not None else None
        start = now()
        report = self.session.run(self.request, on_event=log)
        ran = now()
        paths = self.session.write_bundle(report, "bundle")
        end = now()
        files = {path.name: path.read_text() for path in paths}
        result = Round(
            work=report.executed_cells,
            wall_s=end - start,
            op_ms=[(end - start) * 1000.0],
            digest=digest_files(files),
        )
        result.attempted += 1
        if report.executed_cells != self.planned:
            result.failures.append(
                f"executed {report.executed_cells} cells, planned {self.planned}"
            )
        for path in paths:
            result.attempted += 1
            try:
                if path.name == "suite.json":
                    load_suite(path)
                else:
                    load_result(path)
            except Exception as exc:  # a bundle that does not load is a failed op
                result.failures.append(f"{path.name} does not load: {exc!r}")
        if trace is not None:
            self.record_spans(trace, log, start, ran, end)
        return result

    def record_spans(self, trace: Trace, log: EventLog, start: float, ran: float, end: float):
        root = trace.add("round", self.name, start, end)
        run = trace.add("run", self.name, start, ran, root)
        trace.add("write", self.name, ran, end, root)
        trace.count(f"{self.name}.events", len(log.events))
        execute = suite_phases(trace, log, self.name, start, run)
        if execute is None:
            return
        chunks = log.pairs(
            "ChunkDispatched", "ChunkCompleted", lambda e: (e.chunk_id, e.where)
        )
        for (_chunk_id, where), opened, closed in chunks:
            if execute["start"] <= opened and closed <= execute["end"]:
                trace.add(f"chunk@{where}", self.name, opened, closed, execute["id"])
            else:
                trace.count(f"{self.name}.chunks_outside_execute")
        cells = [at for at, event in log.events if type(event).__name__ == "CellCompleted"]
        self.cell_gaps_ms.extend((b - a) * 1000.0 for a, b in zip(cells, cells[1:]))

    def check_golden(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        report = self.session.run(RunRequest(self.ids, smoke=True))
        files = {p.name: p.read_text() for p in self.session.write_bundle(report, "smoke")}
        return compare_with_golden(files, self.golden_dir, failures), failures

    def stop(self) -> None:
        self.session.close()


class HandshakeSweep(SuiteWorkload):
    name = "handshake_sweep"
    ids = ("fig12", "fig13")

    def overrides(self):
        reps = self.consts["repetitions"]
        return {"fig12": {"repetitions": reps}, "fig13": {"repetitions": reps}}

    def layer_metrics(self, trace: Trace) -> Dict[str, float]:
        gaps = self.cell_gaps_ms
        return {
            "runtime.matrix.cell_ms_p50": statistics.median(gaps),
            "runtime.matrix.cell_ms_p99": percentile(gaps, 0.99),
        }


class BulkTransfer(SuiteWorkload):
    name = "bulk_transfer"
    ids = ("fig11",)

    def overrides(self):
        return {
            "fig11": {
                "repetitions": self.consts["repetitions"],
                "response_size": self.consts["response_size"],
            }
        }


class TraceFleet(SuiteWorkload):
    name = "trace_fleet"
    ids = ("fig16", "table4")

    def overrides(self):
        return {
            "fig16": {"repetitions": self.consts["fig16_repetitions"]},
            "table4": {"repetitions": self.consts["table4_repetitions"]},
        }

    def make_session(self) -> Session:
        session = Session(DistributedConfig(listen=0, min_workers=FLEET_WORKERS))
        # PYTHONPATH already names the checkout's src (measure.main).
        command = [sys.executable, "-m", "repro", "worker", "--connect", session.address]
        self.workers = [
            subprocess.Popen(
                command + ["--no-cache"],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(FLEET_WORKERS)
        ]
        self.traced = Counter()  # backend_stats deltas, cells and rounds of traced rounds
        return session

    def round(self, trace: Optional[Trace] = None) -> Round:
        before = self.session.backend_stats.to_dict()
        result = super().round(trace)
        if trace is not None:
            after = self.session.backend_stats.to_dict()
            self.traced.update({key: after[key] - before[key] for key in after})
            self.traced.update(cells=result.work, rounds=1)
        return result

    def layer_metrics(self, trace: Trace) -> Dict[str, float]:
        chunk_s = [
            s["end"] - s["start"]
            for s in trace.spans
            if s["workload"] == self.name and s["name"].startswith("chunk@")
        ]
        execute_s = sum(trace.durations("execute", self.name))
        total, rounds = self.traced, self.traced["rounds"]
        return {
            "runtime.scheduler.worker_idle_share": 1.0
            - sum(chunk_s) / (FLEET_WORKERS * execute_s),
            "runtime.distributed.chunk_rtt_ms_p50": statistics.median(chunk_s) * 1000.0,
            "runtime.distributed.chunks_dispatched": total["chunks_dispatched"] / rounds,
            "runtime.distributed.chunks_requeued": total["chunks_requeued"] / rounds,
            "runtime.distributed.chunks_speculated": total["chunks_speculated"] / rounds,
            "runtime.distributed.result_bytes_wire_per_cell": total["result_bytes_wire"]
            / total["cells"],
        }

    def stop(self) -> None:
        try:
            self.session.close()  # sends every worker an orderly SHUTDOWN
        finally:
            for worker in self.workers:
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()


# -- stream_scan ---------------------------------------------------------


class StreamScan(Workload):
    name = "stream_scan"

    def start(self) -> None:
        self.session = Session(LocalConfig(workers=POOL_WORKERS))
        self.request = ScanRequest(
            source={"kind": "synthetic", "count": self.consts["count"], "seed": self.seed},
            shard_size=self.consts["shard_size"],
            vantage_names=("Hamburg", "Hong Kong"),
            days=2,
            seed=self.seed,
        )
        self.shards = math.ceil(self.consts["count"] / self.consts["shard_size"])
        self.shard_ms: List[float] = []
        self.pool_cpu_s = 0.0
        self.scan_wall_s = 0.0

    def round(self, trace: Optional[Trace] = None) -> Round:
        log = EventLog() if trace is not None else None
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = now()
        report = self.session.scan(self.request, on_event=log)
        scanned = now()
        text = report.to_json()
        with open("scan.json", "w") as fh:
            fh.write(text)
        end = now()
        result = Round(
            work=self.consts["count"],
            wall_s=end - start,
            op_ms=[(end - start) * 1000.0],
            digest=hashlib.sha256(text.encode()).hexdigest(),
            attempted=1 + self.shards,
        )
        if report.sketch.targets != self.consts["count"]:
            result.failures.append(
                f"sketch holds {report.sketch.targets} targets, not {self.consts['count']}"
            )
        missing = self.shards - report.executed_shards
        result.failures.extend(["a shard was not executed"] * missing)
        if trace is not None:
            # The pool is the session's own and is reaped when the scan
            # returns, so its CPU is the change in reaped-children time.
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.pool_cpu_s += (after.ru_utime + after.ru_stime) - (
                reaped.ru_utime + reaped.ru_stime
            )
            self.scan_wall_s += scanned - start
            self.record_spans(trace, log, start, scanned, end)
        return result

    def record_spans(self, trace: Trace, log: EventLog, start: float, scanned: float, end: float):
        dispatched = log.first("ShardDispatched")
        merged = log.last("ShardCompleted")
        root = trace.add("round", self.name, start, end)
        scan = trace.add("run", self.name, start, scanned, root)
        trace.add("write", self.name, scanned, end, root)
        trace.count(f"{self.name}.events", len(log.events))
        if None in (dispatched, merged):
            trace.count(f"{self.name}.rounds_without_phase_events")
            return
        trace.add("plan", self.name, start, dispatched, scan)
        execute = trace.add("execute", self.name, dispatched, merged, scan)
        trace.add("aggregate", self.name, merged, scanned, scan)
        shards = log.pairs("ShardDispatched", "ShardCompleted", lambda e: e.shard_index)
        for _index, opened, closed in shards:
            trace.add("shard", self.name, opened, closed, execute)
            self.shard_ms.append((closed - opened) * 1000.0)

    def layer_metrics(self, trace: Trace) -> Dict[str, float]:
        return {
            "wild.coordinator.shard_ms_p50": statistics.median(self.shard_ms),
            "wild.coordinator.pool_idle_share": 1.0
            - self.pool_cpu_s / (POOL_WORKERS * self.scan_wall_s),
        }

    def stop(self) -> None:
        self.session.close()


# -- service_mix ---------------------------------------------------------


class ServiceMix(Workload):
    name = "service_mix"
    ids = ("fig5", "fig6", "fig7", "fig12", "fig13")

    def request(self, base_seed: int) -> RunRequest:
        overrides = {exp: {"base_seed": base_seed} for exp in self.ids}
        return RunRequest(self.ids, overrides=overrides, smoke=True)

    def start(self) -> None:
        # One closed-loop client against an in-process daemon is serial
        # (one GIL): a second core buys nothing, and on a shared VM the
        # cross-CPU wake-ups between client, daemon and executor threads
        # made rounds 10-30 % slower and far less steady (README).
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        # A relative socket path (the process sits in its work
        # directory) keeps clear of the 108-byte sun_path limit
        # however deep the checkout is.
        self.manager = ServiceManager(pool=1, workers=0, cache_dir="cache")
        self.daemon = ServiceDaemon(self.manager, socket_path="service.sock")
        self.thread = threading.Thread(target=self.daemon.run, name="e2e-daemon", daemon=True)
        self.thread.start()
        self.client = ServiceClient(self.daemon.wait_started(30))
        self.warm = self.request(self.seed)
        self.cold_jobs = 0
        self.samples: Dict[str, List[float]] = {
            key: [] for key in ("submit", "first_event", "fetch", "warm", "cold")
        }
        self.cache_lookups = [0, 0]
        self.job(self.warm)  # the cold fill of the warm request

    def next_cold(self) -> RunRequest:
        # Seeds base_seed..base_seed+repetitions are drawn per job, so
        # fresh jobs sit 1000 apart and share no cell with any other.
        self.cold_jobs += 1
        return self.request((self.seed + 1) * 1_000_000 + self.cold_jobs * 1000)

    def job(self, request: RunRequest, trace: Optional[Trace] = None, root=None) -> Tuple:
        """Submit, follow the event stream to its end, fetch:
        ``(job id, bundle files, latency in ms)``."""
        log = EventLog() if trace is not None else None
        start = now()
        handle = self.client.submit(request)
        submitted = now()
        for event in handle.events():
            if log is not None:
                log(event)
        finished = now()
        files = self.client.fetch(handle.job_id)
        end = now()
        if trace is not None:
            self.record_spans(trace, log, root, (start, submitted, finished, end))
        return handle.job_id, files, (end - start) * 1000.0

    def record_spans(self, trace: Trace, log: EventLog, root, times) -> None:
        start, submitted, finished, end = times
        job = trace.add("job", self.name, start, end, root)
        trace.add("submit", self.name, start, submitted, job)
        relay = trace.add("events", self.name, submitted, finished, job)
        trace.add("write", self.name, finished, end, job)
        self.samples["submit"].append((submitted - start) * 1000.0)
        self.samples["fetch"].append((end - finished) * 1000.0)
        if log.events:
            self.samples["first_event"].append((log.events[0][0] - start) * 1000.0)
        suite_phases(trace, log, self.name, submitted, relay)

    def round(self, trace: Optional[Trace] = None) -> Round:
        jobs = self.consts["jobs_per_round"]
        result = Round(work=jobs, wall_s=0.0, op_ms=[], digest="")
        root = trace.open("round", self.name) if trace is not None else None
        kinds: Dict[str, str] = {}
        digests = set()
        for index in range(jobs):
            cold = index == 0
            job_id, files, latency_ms = self.job(
                self.next_cold() if cold else self.warm, trace, root
            )
            # The loop wall is the sum of its jobs: one closed-loop
            # client, and the harness's own checks stay outside it.
            result.wall_s += latency_ms / 1000.0
            kinds[job_id] = "cold" if cold else "warm"
            if cold:
                self.samples["cold"].append(latency_ms)
            else:
                result.op_ms.append(latency_ms)
                digests.add(digest_files(files))
                self.samples["warm"].append(latency_ms)
        if trace is not None:
            trace.close(root)
        result.digest = ",".join(sorted(digests))
        self.check_jobs(kinds, result, trace is not None)
        return result

    def check_jobs(self, kinds: Dict[str, str], result: Round, traced: bool) -> None:
        for job_id, kind in kinds.items():
            result.attempted += 1
            # One status call per job: listing every job the daemon has
            # seen would cost more each round and drift into cpu_s.
            record = self.client.status(job_id)
            summary = record.summary or {}
            hits = summary.get("disk_cache_hits")
            misses = summary.get("disk_cache_misses")
            if record.status is not JobStatus.SUCCEEDED:
                result.failures.append(f"{kind} job {job_id} did not succeed")
            elif kind == "warm" and (misses != 0 or not hits):
                result.failures.append(f"warm job {job_id}: {hits} hits, {misses} misses")
            elif kind == "cold" and (hits != 0 or not misses):
                result.failures.append(f"cold job {job_id}: {hits} hits, {misses} misses")
            if traced:
                self.cache_lookups[0] += hits or 0
                self.cache_lookups[1] += misses or 0

    def check_golden(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        handle = self.client.submit(RunRequest(self.ids, smoke=True))
        for _event in handle.events():
            pass
        files = self.client.fetch(handle.job_id)
        return compare_with_golden(files, self.golden_dir, failures), failures

    def layer_metrics(self, trace: Trace) -> Dict[str, float]:
        health = []
        for _ in range(30):
            start = now()
            self.client.health()
            health.append((now() - start) * 1000.0)
        default = []
        for _ in range(3):
            start = now()
            self.client.submit(self.warm).result()
            default.append((now() - start) * 1000.0)
        hits, misses = self.cache_lookups
        samples = self.samples
        return {
            "service.http.health_ms": statistics.median(health),
            "service.submit_ms": statistics.median(samples["submit"]),
            "service.first_event_ms": statistics.median(samples["first_event"]),
            "service.fetch_ms": statistics.median(samples["fetch"]),
            "service.job_latency_ms_p99": percentile(samples["warm"], 0.99),
            "service.cold_job_latency_ms_p50": statistics.median(samples["cold"]),
            "api.client.result_default_ms": statistics.median(default),
            "runtime.disk_cache.hit_ratio": hits / (hits + misses),
        }

    def stop(self) -> None:
        try:
            self.daemon.stop()
            self.thread.join(timeout=10)
            self.manager.close()
        finally:
            os.sched_setaffinity(0, self.affinity)


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (HandshakeSweep, BulkTransfer, TraceFleet, StreamScan, ServiceMix)
}

