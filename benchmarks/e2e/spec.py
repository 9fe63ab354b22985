"""What the benchmark measures: workloads, metrics, bounds, constants.

Standard library only, so ``run.py --list`` and the self-test can read
it without importing ``repro``. ``BENCHMARK.json`` at the repository
root repeats the names, units, directions and bounds given here; the
self-test fails when the two disagree.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Every workload, in the order a full pass runs them. ``work`` is the
#: unit ``work_per_s`` counts on that workload; ``op`` is the request
#: whose latency ``op_latency_ms_p50`` reports.
WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "handshake_sweep",
        "work": "cells",
        "op": "one Session.run + write_bundle of the round's request",
        "why": "fig12+fig13 stats-level 10 KB cells on the serial path: per-connection "
        "construction and handshake event cost; plan, cache and ship layers do nothing",
    },
    {
        "name": "bulk_transfer",
        "work": "cells",
        "op": "one Session.run + write_bundle of the round's request",
        "why": "fig11 1 MiB trace-level cells on the serial path: steady-state per-packet "
        "cost (ACK ranges, cwnd, timer re-arm, qlog); per-connection set-up is noise",
    },
    {
        "name": "trace_fleet",
        "work": "cells",
        "op": "one Session.run + write_bundle of the round's request",
        "why": "fig16+table4 trace-level cells over a 2-worker socket fleet: retention, "
        "wire codec, chunk scheduler, spill and aggregate-from-spill; coordinator-bound",
    },
    {
        "name": "stream_scan",
        "work": "targets",
        "op": "one Session.scan of the round's request",
        "why": "synthetic 2-vantage 2-day scan on a 2-process pool: shard descriptors out, "
        "sketches back, wild/ on the critical path; no QUIC simulation at all",
    },
    {
        "name": "service_mix",
        "work": "jobs",
        "op": "one warm job, submit call to fetch returned",
        "why": "smoke jobs through the HTTP daemon, 1 cold per 99 warm: HTTP, job executor, "
        "plan, disk-cache reads and bundle rendering; cold jobs are the cache's write side",
    },
]

#: Repetition constants per scale. ``full`` is sized so that one round
#: takes about a second on the 2-core reference box; ``tiny`` shrinks
#: repetition counts only (never the shape of a workload) and is what
#: the self-test and the traced pass's side probes run.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "handshake_sweep": {"repetitions": 5},
        "bulk_transfer": {"repetitions": 1, "response_size": 1 << 20},
        "trace_fleet": {"fig16_repetitions": 2, "table4_repetitions": 5},
        "stream_scan": {"count": 50_000, "shard_size": 5_000},
        "service_mix": {"jobs_per_round": 100},
    },
    "tiny": {
        "handshake_sweep": {"repetitions": 1},
        "bulk_transfer": {"repetitions": 1, "response_size": 1 << 16},
        "trace_fleet": {"fig16_repetitions": 1, "table4_repetitions": 1},
        "stream_scan": {"count": 5_000, "shard_size": 1_250},
        "service_mix": {"jobs_per_round": 10},
    },
}

#: Set-up samples per run (fresh processes; the median is reported) and
#: the fewest measured rounds a run accepts, per scale.
SETUP_SAMPLES = {"full": 3, "tiny": 1}
MIN_ROUNDS = {"full": 3, "tiny": 2}

END_TO_END: List[Dict[str, Any]] = [
    {
        "name": "setup_s",
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "fresh process start to first measured round: interpreter, imports, "
        "fleet/daemon/pool start, cold cache fill, one warm-up round; median of the "
        "run's set-up samples",
    },
    {
        "name": "work_per_s",
        "unit": "1/s",
        "better": "higher",
        "bound": 0.25,
        "what": "cells (suite workloads), targets (stream_scan) or jobs (service_mix) "
        "per second of round wall; median over rounds",
    },
    {
        "name": "op_latency_ms_p50",
        "unit": "ms",
        "better": "lower",
        "bound": 0.25,
        "what": "median latency of the workload's op (see --list) over all measured rounds",
    },
    {
        "name": "cpu_s",
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "user+sys CPU of the measuring process and all its descendants per "
        "round of fixed work; median over rounds",
    },
    {
        "name": "peak_rss_mb",
        "unit": "MB",
        "better": "lower",
        "bound": 0.15,
        "what": "ru_maxrss of the measuring process (the coordinator/daemon side) after "
        "set-up, the golden check and the first MIN_ROUNDS measured rounds: a fixed "
        "amount of work, so a run that fits more rounds into its seconds reads no fatter",
    },
]


def _layer(name: str, unit: str, better: str, moves: str) -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better, "moves": moves}


_SIM = "work_per_s on handshake_sweep and bulk_transfer; nothing on stream_scan or warm jobs"
_QUIC = "work_per_s on bulk_transfer first (per-packet work x thousands), then handshake_sweep"
_INTEROP = "work_per_s on handshake_sweep / bulk_transfer and service.cold_job_latency_ms_p50"
_SUITE = (
    "op_latency_ms_p50 and work_per_s on service_mix (a large share of a warm job) and "
    "work_per_s on trace_fleet (aggregate-from-spill); under 2 % of handshake_sweep"
)
_CACHE = "op_latency_ms_p50 on service_mix only; on no other workload's path"
_FLEET = "work_per_s, cpu_s and peak_rss_mb on trace_fleet only"
_SERVICE = "bounds op_latency_ms_p50 on service_mix from below"
_WILD = "work_per_s on stream_scan only"

#: Per-layer metrics of the traced pass. ``moves`` says which
#: end-to-end metric the layer metric should move, and where.
PER_LAYER: List[Dict[str, str]] = [
    _layer("sim.engine.events_per_s", "1/s", "higher", _SIM),
    _layer("sim.engine.call_at_us", "us", "lower", _SIM),
    _layer("quic.packet.wire_size_us.first", "us", "lower", _QUIC),
    _layer("quic.packet.wire_size_us.repeat", "us", "lower", _QUIC),
    _layer("quic.frames.encode_us.ack", "us", "lower", _QUIC),
    _layer("quic.frames.encode_us.crypto", "us", "lower", _QUIC),
    _layer("quic.recovery.on_ack_us", "us", "lower", _QUIC),
    _layer("quic.recovery.deadline_us", "us", "lower", _QUIC),
    _layer("interop.run_once_ms.stats", "ms", "lower", _INTEROP),
    _layer("interop.run_once_ms.trace", "ms", "lower", _INTEROP),
    _layer(
        "interop.retention_ratio",
        "ratio",
        "lower",
        "trace_fleet peak_rss_mb and worker-side time only (base: run_once_ms.stats)",
    ),
    _layer("interop.run_once_ms.bulk", "ms", "lower", _INTEROP),
    _layer("interop.us_per_datagram.handshake", "us", "lower", _INTEROP),
    _layer("interop.us_per_datagram.bulk", "us", "lower", _INTEROP),
    _layer("interop.sim_ms_per_wall_ms", "ratio", "higher", _INTEROP),
    _layer("interop.py_calls.handshake", "count", "lower", _INTEROP + "; repeats exactly"),
    _layer("interop.py_calls.bulk", "count", "lower", _INTEROP + "; repeats exactly"),
    _layer("runtime.artifacts.execute_cell_ms.stats", "ms", "lower", _INTEROP),
    _layer("runtime.artifacts.execute_cell_ms.trace", "ms", "lower", _INTEROP),
    _layer("runtime.suite.plan_ms", "ms", "lower", _SUITE),
    _layer("experiments.cells_ms", "ms", "lower", _SUITE),
    _layer("experiments.aggregate_ms", "ms", "lower", _SUITE),
    _layer("api.bundles.write_ms", "ms", "lower", _SUITE),
    _layer("span.plan_s", "s", "lower", "the traced workload's own op_latency_ms_p50"),
    _layer("span.execute_s", "s", "lower", "the traced workload's own op_latency_ms_p50"),
    _layer("span.aggregate_s", "s", "lower", "the traced workload's own op_latency_ms_p50"),
    _layer("span.write_s", "s", "lower", "the traced workload's own op_latency_ms_p50"),
    _layer("runtime.matrix.cell_ms_p50", "ms", "lower", "work_per_s on handshake_sweep"),
    _layer("runtime.matrix.cell_ms_p99", "ms", "lower", "work_per_s on handshake_sweep"),
    _layer("runtime.cache.make_key_us", "us", "lower", _CACHE),
    _layer("runtime.cache.get_hit_us", "us", "lower", _CACHE),
    _layer("runtime.disk_cache.fingerprint_us", "us", "lower", _CACHE),
    _layer("runtime.disk_cache.get_hit_us", "us", "lower", _CACHE),
    _layer(
        "runtime.disk_cache.put_us",
        "us",
        "lower",
        "service.cold_job_latency_ms_p50 and setup_s on service_mix (fsync per cell)",
    ),
    _layer("runtime.disk_cache.hit_ratio", "ratio", "higher", _CACHE),
    _layer("runtime.wire.encode_ms.stats_chunk", "ms", "lower", _FLEET),
    _layer("runtime.wire.decode_ms.stats_chunk", "ms", "lower", _FLEET),
    _layer("runtime.wire.encode_ms.trace_chunk", "ms", "lower", _FLEET),
    _layer("runtime.wire.decode_ms.trace_chunk", "ms", "lower", _FLEET),
    _layer("runtime.wire.bytes_per_cell.trace", "B", "lower", _FLEET),
    _layer("runtime.wire.compress_ratio", "ratio", "higher", _FLEET + " (base: wire bytes)"),
    _layer("runtime.store.put_ms.trace", "ms", "lower", _FLEET),
    _layer("runtime.store.get_ms.trace", "ms", "lower", _FLEET),
    _layer("runtime.scheduler.carve_us_per_chunk", "us", "lower", _FLEET),
    _layer("runtime.scheduler.worker_idle_share", "ratio", "lower", _FLEET),
    _layer("runtime.distributed.chunk_rtt_ms_p50", "ms", "lower", _FLEET),
    _layer("runtime.distributed.chunks_dispatched", "count", "lower", _FLEET),
    _layer("runtime.distributed.chunks_requeued", "count", "lower", _FLEET),
    _layer("runtime.distributed.chunks_speculated", "count", "lower", _FLEET),
    _layer("runtime.distributed.result_bytes_wire_per_cell", "B", "lower", _FLEET),
    _layer("service.http.health_ms", "ms", "lower", _SERVICE),
    _layer("service.submit_ms", "ms", "lower", _SERVICE),
    _layer("service.first_event_ms", "ms", "lower", _SERVICE),
    _layer("service.fetch_ms", "ms", "lower", _SERVICE),
    _layer(
        "service.job_latency_ms_p99",
        "ms",
        "lower",
        "tail of op_latency_ms_p50's sample on service_mix (warm jobs)",
    ),
    _layer(
        "service.cold_job_latency_ms_p50",
        "ms",
        "lower",
        "work_per_s and setup_s on service_mix (simulate + DiskResultCache.put)",
    ),
    _layer(
        "api.client.result_default_ms",
        "ms",
        "lower",
        "what a default client sees (handle.result() through wait()'s 250 ms poll); "
        "a long-poll or stream-wait fix moves it, no end-to-end metric does",
    ),
    _layer("wild.source.targets_per_s", "1/s", "higher", _WILD),
    _layer("wild.qscanner.probes_per_s.analytic", "1/s", "higher", _WILD),
    _layer("wild.qscanner.probes_per_s.batch", "1/s", "higher", "nothing yet: unused by scans"),
    _layer("wild.sketch.observe_per_s", "1/s", "higher", _WILD),
    _layer("wild.sketch.merge_us", "us", "lower", _WILD),
    _layer("wild.coordinator.shard_ms_p50", "ms", "lower", _WILD),
    _layer("wild.coordinator.pool_idle_share", "ratio", "lower", _WILD),
    _layer("cli.startup_ms", "ms", "lower", "setup_s on every workload"),
    _layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "nothing: untraced over traced work_per_s of the traced workload, minus one",
    ),
]


def workload_names() -> List[str]:
    return [w["name"] for w in WORKLOADS]


def contract_view() -> Dict[str, Any]:
    """The part of this module ``BENCHMARK.json`` must repeat."""
    return {
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }
