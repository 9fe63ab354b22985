"""Timed calls into each layer's public functions.

The process sits in a scratch directory while these run, so the paths
the probes write to are relative.

Every probe is independent of the workload being traced and runs in
every traced pass, so a layer number always has a twin measured on the
same box in the same minute as the end-to-end pass it explains. A
probe gets a few tens of milliseconds (the contract caps a whole run),
loops its call to fill them, repeats that three times and reports the
median; the anchor scenario is ROADMAP's quic-go / IACK / 9 ms cell.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import subprocess
import sys
from dataclasses import replace
from typing import Callable, Dict, List

from repro.api import RunRequest, Session, write_bundle
from repro.experiments.registry import get_spec
from repro.experiments.spec import CellResults
from repro.interop.runner import Runner, Scenario
from repro.quic.frames import AckFrame, CryptoFrame
from repro.quic.packet import Packet, PacketType, Space
from repro.quic.recovery import Recovery, RecoveryConfig
from repro.quic.server import ServerMode
from repro.runtime.artifacts import ArtifactLevel, execute_cell
from repro.runtime.cache import ResultCache
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.scheduler import ChunkScheduler
from repro.runtime.store import ArtifactStore
from repro.runtime.wire import DEFAULT_CODEC, decode_payload, encode_payload
from repro.runtime.worker import group_cells, run_cell_chunk
from repro.sim.engine import EventLoop
from repro.wild.qscanner import QScanner
from repro.wild.stream.sketch import ScanSketch
from repro.wild.stream.source import SyntheticSource
from repro.wild.vantage import vantage
from tracing import Trace, now

ANCHOR = Scenario(client="quic-go", mode=ServerMode.IACK, rtt_ms=9.0)
BULK = replace(ANCHOR, response_size=1 << 20)
CHUNK_CELLS = 64
REPEATS = 3


def per_call(fn: Callable[[], object], budget_s: float = 0.03) -> float:
    """Seconds per call of ``fn``: loops sized from one trial call to
    fill ``budget_s``, median of :data:`REPEATS` loops."""
    start = now()
    fn()
    trial = max(now() - start, 1e-7)
    loops = max(1, min(200_000, int(budget_s / trial)))
    times = []
    for _ in range(REPEATS):
        start = now()
        for _ in range(loops):
            fn()
        times.append((now() - start) / loops)
    return statistics.median(times)


def median_of(fn: Callable[[], float]) -> float:
    """Median of :data:`REPEATS` calls of a probe that times itself."""
    return statistics.median(fn() for _ in range(REPEATS))


# -- sim -----------------------------------------------------------------


def sim_engine() -> Dict[str, float]:
    timers = 5000

    def noop() -> None:
        pass

    def drain() -> float:
        loop = EventLoop()
        for i in range(timers):
            loop.call_at(float(i), noop)
        start = now()
        loop.run()
        return timers / (now() - start)

    def schedule_cancel_run() -> float:
        loop = EventLoop()
        start = now()
        handles = [loop.call_at(float(i), noop) for i in range(timers)]
        for handle in handles[::2]:
            handle.cancel()
        loop.run()
        return (now() - start) / timers * 1e6

    return {
        "sim.engine.events_per_s": median_of(drain),
        "sim.engine.call_at_us": median_of(schedule_cancel_run),
    }


# -- quic ----------------------------------------------------------------


def app_packet(pn: int) -> Packet:
    return Packet(PacketType.ONE_RTT, pn, (CryptoFrame(offset=pn * 1200, length=1200),))


def quic_packet() -> Dict[str, float]:
    count = 2000

    def sizes(packets: List[Packet]) -> float:
        start = now()
        for packet in packets:
            packet.wire_size()
        return (now() - start) / count * 1e6

    first, repeat = [], []
    for _ in range(REPEATS):
        packets = [app_packet(pn) for pn in range(count)]
        first.append(sizes(packets))
        repeat.append(sizes(packets))
    return {
        "quic.packet.wire_size_us.first": statistics.median(first),
        "quic.packet.wire_size_us.repeat": statistics.median(repeat),
    }


def quic_frames() -> Dict[str, float]:
    ack = AckFrame(ranges=((20, 30), (10, 15), (0, 5)), ack_delay_ms=1.0)
    crypto = CryptoFrame(offset=0, length=1200)
    return {
        "quic.frames.encode_us.ack": per_call(ack.encode) * 1e6,
        "quic.frames.encode_us.crypto": per_call(crypto.encode) * 1e6,
    }


def quic_recovery() -> Dict[str, float]:
    """A bulk transfer's steady state: each ACK re-covers the whole
    history and newly acknowledges one packet."""
    count = 300

    def on_ack() -> float:
        recovery = Recovery(RecoveryConfig())
        for pn in range(count):
            recovery.on_packet_sent(app_packet(pn), pn * 0.1, 1250)
        start = now()
        for pn in range(count):
            recovery.on_ack_received(
                Space.APPLICATION, AckFrame(ranges=((0, pn),)), 20.0 + pn * 0.1
            )
        return (now() - start) / count * 1e6

    def deadline() -> float:
        recovery = Recovery(RecoveryConfig())
        spent = 0.0
        for pn in range(count):
            # Each send changes the state the deadline is memoized on,
            # so every timed call computes.
            recovery.on_packet_sent(app_packet(pn), pn * 0.1, 1250)
            start = now()
            recovery.loss_detection_deadline(pn * 0.1)
            spent += now() - start
        return spent / count * 1e6

    return {
        "quic.recovery.on_ack_us": median_of(on_ack),
        "quic.recovery.deadline_us": median_of(deadline),
    }


# -- interop, runtime.artifacts -----------------------------------------


def interop() -> Dict[str, float]:
    runner = Runner()

    def run(scenario: Scenario, keep: bool, seed: int):
        start = now()
        result = runner.run_once(scenario, seed=seed, capture_trace=keep, record_qlog=keep)
        wall_ms = (now() - start) * 1000.0
        datagrams = result.client_stats.datagrams_sent + result.server_stats.datagrams_sent
        return wall_ms, datagrams, result.duration_ms

    def calls(scenario: Scenario) -> int:
        # Counted under the profiler in a run of its own: the count
        # repeats exactly, which no timing on a shared box does.
        profiler = cProfile.Profile()
        profiler.enable()
        runner.run_once(scenario, seed=0, capture_trace=False, record_qlog=False)
        profiler.disable()
        return pstats.Stats(profiler).total_calls

    stats = [run(ANCHOR, False, seed) for seed in range(15)]
    trace = [run(ANCHOR, True, seed) for seed in range(15)]
    bulk = [run(BULK, False, seed) for seed in range(REPEATS)]
    stats_ms = statistics.median(wall for wall, _, _ in stats)
    trace_ms = statistics.median(wall for wall, _, _ in trace)
    bulk_ms = statistics.median(wall for wall, _, _ in bulk)
    return {
        "interop.run_once_ms.stats": stats_ms,
        "interop.run_once_ms.trace": trace_ms,
        "interop.retention_ratio": trace_ms / stats_ms,
        "interop.run_once_ms.bulk": bulk_ms,
        "interop.us_per_datagram.handshake": statistics.median(
            wall * 1000.0 / datagrams for wall, datagrams, _ in stats
        ),
        "interop.us_per_datagram.bulk": statistics.median(
            wall * 1000.0 / datagrams for wall, datagrams, _ in bulk
        ),
        "interop.sim_ms_per_wall_ms": statistics.median(sim / wall for wall, _, sim in stats),
        "interop.py_calls.handshake": calls(ANCHOR),
        "interop.py_calls.bulk": calls(BULK),
    }


def artifacts() -> Dict[str, float]:
    runner = Runner()
    return {
        f"runtime.artifacts.execute_cell_ms.{level.value}": per_call(
            lambda level=level: execute_cell(ANCHOR, 0, level, runner=runner)
        )
        * 1000.0
        for level in (ArtifactLevel.STATS, ArtifactLevel.TRACE)
    }


# -- runtime.suite, experiments, api.bundles ----------------------------


def suite() -> Dict[str, float]:
    spec = get_spec("fig12")
    params = spec.resolve_params(smoke=True)
    cells = spec.plan_cells(params)
    view = CellResults.in_memory(
        [execute_cell(cell.scenario, cell.seed, spec.artifact_level) for cell in cells]
    )
    with Session() as session:
        request = RunRequest(("fig12", "fig13"))
        plan_s = per_call(lambda: session.plan(request))
        report = session.run(RunRequest(("fig12",), smoke=True))
    return {
        "runtime.suite.plan_ms": plan_s * 1000.0,
        "experiments.cells_ms": per_call(lambda: spec.plan_cells(params)) * 1000.0,
        "experiments.aggregate_ms": per_call(lambda: spec.aggregate(view, params)) * 1000.0,
        "api.bundles.write_ms": per_call(lambda: write_bundle(report, "probe-bundle")) * 1000.0,
    }


# -- runtime.cache, runtime.disk_cache ----------------------------------


def caches() -> Dict[str, float]:
    artifact = execute_cell(ANCHOR, 0, ArtifactLevel.STATS)
    memory = ResultCache()
    key = memory.make_key(ANCHOR, 0, ArtifactLevel.STATS)
    memory.put(key, artifact)
    disk = DiskResultCache("probe-cache")
    fingerprint = disk.fingerprint(ANCHOR, 0, ArtifactLevel.STATS)
    disk.put(fingerprint, artifact)
    return {
        "runtime.cache.make_key_us": per_call(
            lambda: memory.make_key(ANCHOR, 0, ArtifactLevel.STATS)
        )
        * 1e6,
        "runtime.cache.get_hit_us": per_call(lambda: memory.get(key)) * 1e6,
        "runtime.disk_cache.fingerprint_us": per_call(
            lambda: disk.fingerprint(ANCHOR, 0, ArtifactLevel.STATS)
        )
        * 1e6,
        "runtime.disk_cache.get_hit_us": per_call(lambda: disk.get(fingerprint)) * 1e6,
        "runtime.disk_cache.put_us": per_call(lambda: disk.put(fingerprint, artifact)) * 1e6,
    }


# -- runtime.wire, runtime.store, runtime.scheduler ---------------------


def wire_and_store() -> Dict[str, float]:
    """A worker's RESULT body for a 64-cell chunk at both levels, and
    one trace-level cell through the spill store."""
    out: Dict[str, float] = {}
    chunk = group_cells([(index, ANCHOR, index) for index in range(CHUNK_CELLS)])
    for level in ("stats", "trace"):
        results = run_cell_chunk(chunk, level)
        body, raw_len = encode_payload(results, codec=DEFAULT_CODEC)
        out[f"runtime.wire.encode_ms.{level}_chunk"] = (
            per_call(lambda: encode_payload(results, codec=DEFAULT_CODEC)) * 1000.0
        )
        out[f"runtime.wire.decode_ms.{level}_chunk"] = (
            per_call(lambda: decode_payload(body)) * 1000.0
        )
        if level == "trace":
            out["runtime.wire.bytes_per_cell.trace"] = len(body) / CHUNK_CELLS
            out["runtime.wire.compress_ratio"] = raw_len / len(body)
            artifact = results[0][1]
            with ArtifactStore(root="probe-store") as store:
                handle = store.put(artifact)
                out["runtime.store.put_ms.trace"] = per_call(lambda: store.put(artifact)) * 1e3
                out["runtime.store.get_ms.trace"] = per_call(lambda: store.get(handle)) * 1e3
    return out


def scheduler() -> Dict[str, float]:
    """The coordinator's carve loop without sockets: two workers take,
    send and record chunks of a 16k-cell pool, each at 1 ms a cell."""
    cells = [(index, ANCHOR, index) for index in range(16_384)]

    def carve() -> float:
        sched = ChunkScheduler()
        states = {wid: sched.add_worker(wid) for wid in (1, 2)}
        clock = 0.0
        chunks = 0
        start = now()
        sched.start_job(1, pool=cells, initial_chunk_cells=64)
        while not sched.job.done():
            for wid, state in states.items():
                assignment = sched.assign(wid, clock)
                if assignment is None:
                    continue
                sched.mark_send(wid, clock)
                clock += assignment.cells * 0.001
                done = [(i, None) for _scenario, pairs in assignment.chunk for i, _seed in pairs]
                sched.record(wid, assignment.chunk_id, done)
                state.observe_result(clock, assignment.cells)
                chunks += 1
        spent = now() - start
        sched.finish_job()
        return spent / chunks * 1e6

    return {"runtime.scheduler.carve_us_per_chunk": median_of(carve)}


# -- wild ----------------------------------------------------------------


def wild(seed: int) -> Dict[str, float]:
    count = 4000
    source = SyntheticSource(count=100_000, seed=seed)

    def generate() -> float:
        start = now()
        targets = list(source.iter_range(0, count))
        return len(targets) / (now() - start)

    targets = [t for t in source.iter_range(0, count) if t.answers_quic]
    scanner = QScanner(vantage("Hamburg"), seed=seed)
    probes = scanner.probe(targets)

    def scan(engine) -> float:
        start = now()
        found = engine(targets)
        return len(found) / (now() - start)

    def observe() -> float:
        sketch = ScanSketch()
        start = now()
        for probe in probes:
            sketch.observe_probe(probe)
        return len(probes) / (now() - start)

    shard = ScanSketch()
    for probe in probes:
        shard.observe_probe(probe)
    return {
        "wild.source.targets_per_s": median_of(generate),
        "wild.qscanner.probes_per_s.analytic": median_of(lambda: scan(scanner.probe)),
        "wild.qscanner.probes_per_s.batch": median_of(lambda: scan(scanner.probe_batch)),
        "wild.sketch.observe_per_s": median_of(observe),
        "wild.sketch.merge_us": per_call(lambda: ScanSketch().merge(shard)) * 1e6,
    }


# -- cli -----------------------------------------------------------------


def cli() -> Dict[str, float]:
    def startup() -> float:
        start = now()
        subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        return (now() - start) * 1000.0

    return {"cli.startup_ms": median_of(startup)}


def run_all(trace: Trace, seed: int) -> Dict[str, float]:
    probes = [
        ("sim", sim_engine),
        ("quic.packet", quic_packet),
        ("quic.frames", quic_frames),
        ("quic.recovery", quic_recovery),
        ("interop", interop),
        ("runtime.artifacts", artifacts),
        ("runtime.suite", suite),
        ("runtime.cache", caches),
        ("runtime.wire", wire_and_store),
        ("runtime.scheduler", scheduler),
        ("wild", lambda: wild(seed)),
        ("cli", cli),
    ]
    metrics: Dict[str, float] = {}
    for layer, probe in probes:
        with trace.timed(f"probe:{layer}", "probes"):
            metrics.update(probe())
    return metrics
