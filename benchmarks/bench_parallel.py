"""Serial-vs-parallel wall-clock benchmark for the experiment runtime.

Measures the two pipeline generations on identical workloads:

* **fig6_standalone** (simulator sweep): the seed pipeline ran every
  (scenario × seed) cell serially with full artifact retention (live
  connections, qlogs, packet traces). The new pipeline runs the same
  matrix through ``repro.api`` at artifact level ``stats``.
* **table1** (wild scan): the seed pipeline probed each vantage × day
  pass serially with the per-domain analytic engine. The new pipeline
  plans the passes as task cells on the session's backend and scans
  them with the batch engine.

Legs:

``serial_seed_pipeline``
    The seed repo's execution path. For table1 this is bit-for-bit the
    in-tree ``engine="analytic", workers=0`` path. For fig6 the
    in-tree ``workers=0, artifact_level="full"`` leg reproduces the
    seed's retention behavior; pass ``--seed-ref <commit>`` to
    additionally measure the actual seed commit in a temporary git
    worktree (how the committed numbers were produced).
``parallel_Nw``
    The new pipeline at N workers.

* **suite_distributed**: the fig12+fig6 suite served over the socket
  backend to two localhost ``repro worker`` processes — the wire
  protocol's end-to-end overhead against the in-process pool.

* **suite_distributed_cached**: the same suite run twice against one
  live fleet — the second pass is served from the workers' resident
  result caches, measuring the cross-suite memo win end to end.

* **suite_distributed_v4**: wire volume — the suite's RESULT byte
  counters before and after compression on one fleet run; the gated
  number is a byte ratio, not a timing.

* **profile_sweep_distributed**: the recovery-profile lab sweep
  (``lab_cc``: fig6's tail-loss scenario × CC variant) on a 2-worker
  localhost fleet vs the local 2-worker pool — the lab profiles under
  the full wire protocol.

Every entry emits ``speedup_<leg>_vs_<baseline>`` ratio keys that are
computed identically in ``--quick`` and full runs (both legs measured
in the same process on the same machine). Each entry also declares a
``stable_ratios`` list: the subset of those keys whose two legs run at
**identical parallelism**, so the ratio measures a code-path property
(artifact slimming, batch scan engine, suite dedup, protocol overhead)
rather than how many cores the host happens to have. Only those keys
are diffed by ``check_regression.py`` against the committed full-size
``BENCH_parallel.json`` — worker-scaling ratios like
``speedup_4w_vs_serial`` are reported for humans but not gated, since
they cannot transfer between a dev box and a shared CI runner.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py              # full
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py --seed-ref 89b5028
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro import api  # noqa: E402
from repro.experiments import CellResults, get_spec  # noqa: E402
from repro.interop.runner import Runner  # noqa: E402
from repro.runtime import ArtifactLevel, SuiteRunner, execute_cell  # noqa: E402
from repro.runtime.distributed import SocketBackend  # noqa: E402

FIG6_REPETITIONS = 25
SWEEP_REPETITIONS = 10
TABLE1_LIST_SIZE = 50_000
TABLE1_DAYS = 2
#: The cached-suite benchmark runs this workload in BOTH --quick and
#: full modes: its warm leg is dominated by fixed per-suite overhead
#: (planning, protocol, reassembly), so unlike the other entries the
#: ratio is not scale-invariant — gating it requires the CI smoke run
#: and the committed baseline to measure the identical workload.
CACHED_SUITE_REPETITIONS = 5


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_fig6(repetitions: int, rounds: int) -> dict:
    legs: dict = {}
    spec = get_spec("fig6")
    params = spec.resolve_params({"http": "h1", "repetitions": repetitions})

    # The façade runs fig6 at its declared stats level; the seed kept
    # everything, so this leg runs its cells at ``full``, in-process.
    def seed_pipeline() -> None:
        runner = Runner()
        cells = spec.plan_cells(params)
        results = [
            execute_cell(cell.scenario, cell.seed, ArtifactLevel.FULL, runner=runner)
            for cell in cells
        ]
        spec.aggregate(CellResults(results), params)

    legs["serial_seed_pipeline_s"] = _best_of(seed_pipeline, rounds)
    legs["serial_stats_s"] = _best_of(
        lambda: api.run_experiment("fig6", http="h1", repetitions=repetitions),
        rounds,
    )
    for workers in (2, 4):
        legs[f"parallel_{workers}w_s"] = _best_of(
            lambda: api.run_experiment(
                "fig6",
                http="h1",
                repetitions=repetitions,
                backend=api.LocalConfig(workers=workers),
            ),
            rounds,
        )
    legs["speedup_4w_vs_serial"] = round(
        legs["serial_seed_pipeline_s"] / legs["parallel_4w_s"], 2
    )
    legs["speedup_2w_vs_serial"] = round(
        legs["serial_seed_pipeline_s"] / legs["parallel_2w_s"], 2
    )
    legs["speedup_stats_vs_serial"] = round(
        legs["serial_seed_pipeline_s"] / legs["serial_stats_s"], 2
    )
    return {
        "workload": {
            "experiment": "fig6",
            "http": "h1",
            "repetitions": repetitions,
            "cells": 16,
        },
        "serial_leg": "workers=0, artifact_level=full (seed retention behavior)",
        "parallel_leg": "repro.api.run_experiment, artifact_level=stats",
        **legs,
        # Both legs serial → the artifact-slimming win is machine-stable.
        "stable_ratios": ["speedup_stats_vs_serial"],
    }


def bench_table1(list_size: int, days: int, rounds: int) -> dict:
    legs: dict = {}

    def table1(scan_engine: str, workers: int = 0) -> None:
        api.run(
            "table1",
            overrides={
                "table1": {"list_size": list_size, "days": days, "engine": scan_engine}
            },
            backend=api.LocalConfig(workers=workers),
        )

    legs["serial_seed_pipeline_s"] = _best_of(lambda: table1("analytic"), rounds)
    legs["serial_batch_s"] = _best_of(lambda: table1("batch"), rounds)
    for workers in (2, 4):
        legs[f"parallel_{workers}w_s"] = _best_of(
            lambda: table1("batch", workers), rounds
        )
    legs["speedup_4w_vs_serial"] = round(
        legs["serial_seed_pipeline_s"] / legs["parallel_4w_s"], 2
    )
    legs["speedup_2w_vs_serial"] = round(
        legs["serial_seed_pipeline_s"] / legs["parallel_2w_s"], 2
    )
    legs["speedup_batch_vs_serial"] = round(
        legs["serial_seed_pipeline_s"] / legs["serial_batch_s"], 2
    )
    return {
        "workload": {
            "experiment": "table1",
            "list_size": list_size,
            "days": days,
            "vantages": 4,
        },
        "serial_leg": "analytic engine, in-process (the seed code path)",
        "parallel_leg": "batch scan engine, passes as cells on the session's pool",
        **legs,
        # Both legs in-process → the batch-engine win is machine-stable.
        "stable_ratios": ["speedup_batch_vs_serial"],
    }


def bench_suite(repetitions: int, rounds: int) -> dict:
    """Suite-planned fig12+fig6 vs the standalone runs back to back.

    The standalone leg executes each experiment on its own runner (no
    shared cache), recomputing fig6's 9 ms cells after fig12 already
    ran them. The suite leg plans both, dedupes the shared cells
    before dispatch, and executes each unique cell exactly once.
    """
    overrides = {
        "fig12": {"repetitions": repetitions},
        "fig6": {"repetitions": repetitions},
    }

    def standalone() -> None:
        api.run_experiment("fig12", http="h1", repetitions=repetitions)
        api.run_experiment("fig6", http="h1", repetitions=repetitions)

    def suite(workers: int) -> None:
        SuiteRunner(workers=workers).run(["fig12", "fig6"], overrides=overrides)

    plan = SuiteRunner().plan(["fig12", "fig6"], overrides=overrides)
    legs: dict = {}
    legs["standalone_s"] = _best_of(standalone, rounds)
    legs["suite_s"] = _best_of(lambda: suite(0), rounds)
    for workers in (2, 4):
        legs[f"suite_{workers}w_s"] = _best_of(lambda: suite(workers), rounds)
    legs["speedup_suite_vs_standalone"] = round(
        legs["standalone_s"] / legs["suite_s"], 2
    )
    legs["speedup_suite_4w_vs_standalone"] = round(
        legs["standalone_s"] / legs["suite_4w_s"], 2
    )
    return {
        "workload": {
            "experiments": ["fig12", "fig6"],
            "http": "h1",
            "repetitions": repetitions,
            "total_cells": plan.total_cells,
            "unique_cells": len(plan.unique_cells),
            "shared_cells": plan.shared_cells,
        },
        "standalone_leg": (
            "fig12 then fig6 via run_experiment(), each in its own session "
            "(shared cells recomputed)"
        ),
        "suite_leg": (
            "SuiteRunner plans both, dedupes (scenario, seed) cells "
            "before dispatch, executes once, fans out"
        ),
        **legs,
        # standalone_s and suite_s are both workers=0 → the dedup win
        # is machine-stable; the 4w variant scales with cores.
        "stable_ratios": ["speedup_suite_vs_standalone"],
    }


def _spawn_local_worker(backend: SocketBackend, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    # the benchmark coordinator runs auth-less on loopback; an exported
    # REPRO_AUTH_KEY would make the workers demand a handshake
    env.pop("REPRO_AUTH_KEY", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", backend.address, "--retry", "30", *extra,
        ],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def bench_distributed(repetitions: int, rounds: int) -> dict:
    """The fig12+fig6 suite served to two localhost ``repro worker``
    processes over the socket backend vs the same suite run locally.

    On one machine the distributed leg measures pure protocol overhead
    (framing, pickling, heartbeats, reassembly) on top of the local
    2-worker pool; across real hosts the same path scales with the
    fleet instead of the local CPU count.
    """
    overrides = {
        "fig12": {"repetitions": repetitions},
        "fig6": {"repetitions": repetitions},
    }

    def local(workers: int) -> None:
        SuiteRunner(workers=workers).run(["fig12", "fig6"], overrides=overrides)

    legs: dict = {}
    legs["local_serial_s"] = _best_of(lambda: local(0), rounds)
    legs["local_2w_s"] = _best_of(lambda: local(2), rounds)
    backend = SocketBackend(port=0, min_workers=2)
    # Cacheless workers: best-of re-runs the identical suite, and warm
    # worker caches would turn this entry into a cache benchmark (that
    # is suite_distributed_cached) instead of protocol overhead.
    workers = [_spawn_local_worker(backend, "--no-cache") for _ in range(2)]
    try:
        backend.wait_for_workers(2, timeout=60)
        legs["distributed_2w_s"] = _best_of(
            lambda: SuiteRunner(backend=backend).run(
                ["fig12", "fig6"], overrides=overrides
            ),
            rounds,
        )
    finally:
        backend.close()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    legs["speedup_distributed_2w_vs_serial"] = round(
        legs["local_serial_s"] / legs["distributed_2w_s"], 2
    )
    legs["speedup_distributed_2w_vs_local_2w"] = round(
        legs["local_2w_s"] / legs["distributed_2w_s"], 2
    )
    return {
        "workload": {
            "experiments": ["fig12", "fig6"],
            "http": "h1",
            "repetitions": repetitions,
            "workers": 2,
        },
        "local_leg": "SuiteRunner on the in-process pool (LocalBackend)",
        "distributed_leg": (
            "SuiteRunner on a SocketBackend serving two localhost "
            "'repro worker' subprocesses (full wire protocol)"
        ),
        **legs,
        # Both legs run 2 workers on the same host → the protocol
        # overhead ratio is machine-stable; the vs_serial one is not.
        "stable_ratios": ["speedup_distributed_2w_vs_local_2w"],
    }


def bench_profile_sweep(repetitions: int, rounds: int) -> dict:
    """The ``lab_cc`` recovery-profile sweep (fig6's tail-loss
    scenario × CC variant) served to two localhost ``repro worker``
    processes vs the local 2-worker pool.

    The gated ratio isolates the wire protocol's overhead on
    profile-sweep workloads at identical parallelism.
    """
    overrides = {"lab_cc": {"repetitions": repetitions}}

    def local(workers: int) -> None:
        SuiteRunner(workers=workers).run(["lab_cc"], overrides=overrides)

    legs: dict = {}
    legs["local_serial_s"] = _best_of(lambda: local(0), rounds)
    legs["local_2w_s"] = _best_of(lambda: local(2), rounds)
    backend = SocketBackend(port=0, min_workers=2)
    # Cacheless workers, as in suite_distributed: best-of re-runs the
    # identical sweep and warm caches would hide the protocol cost.
    workers = [_spawn_local_worker(backend, "--no-cache") for _ in range(2)]
    try:
        backend.wait_for_workers(2, timeout=60)
        legs["distributed_2w_s"] = _best_of(
            lambda: SuiteRunner(backend=backend).run(
                ["lab_cc"], overrides=overrides
            ),
            rounds,
        )
    finally:
        backend.close()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    legs["speedup_profiles_distributed_2w_vs_local_2w"] = round(
        legs["local_2w_s"] / legs["distributed_2w_s"], 2
    )
    return {
        "workload": {
            "experiments": ["lab_cc"],
            "profiles": ["default", "cubic"],
            "http": "h1",
            "repetitions": repetitions,
            "workers": 2,
        },
        "local_leg": "SuiteRunner on the in-process 2-worker pool",
        "distributed_leg": (
            "SuiteRunner on a SocketBackend serving two localhost "
            "'repro worker' subprocesses"
        ),
        **legs,
        # Both gated legs run 2 workers on the same host → the protocol
        # overhead ratio is machine-stable.
        "stable_ratios": ["speedup_profiles_distributed_2w_vs_local_2w"],
    }


def bench_distributed_v4(repetitions: int, rounds: int) -> dict:
    """Wire volume: the fig12+fig6 suite against a fresh 2-worker
    fleet.

    The gated number is a *byte counter ratio*, not a timing: RESULT
    frames carry the suite's real volume, and
    ``result_bytes_raw / result_bytes_wire`` measures how many
    uncompressed payload bytes each shipped wire byte replaced. It is
    deterministic for a fixed workload — a silently-raw codec drags it
    to ~1 on any machine. Wall-clock is reported for humans but not
    gated (localhost loopback does not reward compression the way a
    real link does).
    """
    overrides = {
        "fig12": {"repetitions": repetitions},
        "fig6": {"repetitions": repetitions},
    }

    backend = SocketBackend(port=0, min_workers=2)
    # Cacheless workers: each rounds' re-run must re-ship every RESULT,
    # or warm caches would zero the measured volume.
    workers = [_spawn_local_worker(backend, "--no-cache") for _ in range(2)]
    try:
        backend.wait_for_workers(2, timeout=60)
        elapsed = _best_of(
            lambda: SuiteRunner(backend=backend).run(
                ["fig12", "fig6"], overrides=overrides
            ),
            rounds,
        )
        stats = backend.stats
    finally:
        backend.close()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    legs: dict = {
        "compressed_2w_s": elapsed,
        "result_bytes_raw": stats.result_bytes_raw,
        "result_bytes_wire": stats.result_bytes_wire,
        "chunk_bytes_raw": stats.chunk_bytes_raw,
        "chunk_bytes_wire": stats.chunk_bytes_wire,
        "result_bytes_raw_vs_wire": round(
            stats.result_bytes_raw / stats.result_bytes_wire, 2
        ),
    }
    return {
        "workload": {
            "experiments": ["fig12", "fig6"],
            "http": "h1",
            "repetitions": repetitions,
            "workers": 2,
        },
        "compressed_leg": "SocketBackend (zlib above 4 KiB per frame)",
        **legs,
        # Byte counters, not timings: identical workload → identical
        # raw volume on any machine, and the compression quotient only
        # moves if the codec path breaks.
        "stable_ratios": ["result_bytes_raw_vs_wire"],
    }


def bench_distributed_cached(repetitions: int, rounds: int) -> dict:
    """The cross-suite worker cache: the fig12+fig6 suite twice against
    one live 2-worker fleet.

    The cold leg simulates every unique cell on the workers; the warm
    legs re-run the identical suite and are served from the workers'
    resident result caches (protocol, planning, and reassembly still
    run in full). Both legs use the same fleet at the same parallelism,
    so the ratio is a code-path property — a broken or disabled worker
    cache drags it to ~1 on any machine.
    """
    overrides = {
        "fig12": {"repetitions": repetitions},
        "fig6": {"repetitions": repetitions},
    }
    backend = SocketBackend(port=0, min_workers=2)
    workers = [_spawn_local_worker(backend) for _ in range(2)]
    legs: dict = {}
    try:
        backend.wait_for_workers(2, timeout=60)

        def run_suite() -> None:
            SuiteRunner(backend=backend).run(["fig12", "fig6"], overrides=overrides)

        start = time.perf_counter()
        run_suite()  # cold: populates the worker caches
        legs["cold_suite_s"] = time.perf_counter() - start
        # The warm leg is short (fixed per-suite overhead), so noise
        # moves it proportionally more than the other entries' legs;
        # extra best-of rounds keep the gated ratio steady even in
        # --quick mode.
        legs["warm_suite_s"] = _best_of(run_suite, max(rounds, 3))
        legs["worker_cache_hits"] = backend.stats.worker_cache_hits
    finally:
        backend.close()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    raw = legs["cold_suite_s"] / legs["warm_suite_s"]
    legs["speedup_cached_raw"] = round(raw, 2)
    # The raw ratio divides machine-dependent simulation time by fixed
    # per-suite overhead (~10 ms), so its magnitude does not transfer
    # between hosts. The gated ratio is clipped at 10×: a working cache
    # saturates the clip on any plausible machine, a broken or disabled
    # one reads ~1 and fails the floor — which is the property worth
    # guarding.
    legs["speedup_cached_vs_cold"] = round(min(raw, 10.0), 2)
    return {
        "workload": {
            "experiments": ["fig12", "fig6"],
            "http": "h1",
            "repetitions": repetitions,
            "workers": 2,
        },
        "cold_leg": "first suite run against a fresh fleet (cells simulated)",
        "warm_leg": (
            "identical suite against the same live workers (cells served "
            "from their cross-suite result caches)"
        ),
        **legs,
        # Same fleet, same parallelism, back to back; the clipped ratio
        # saturates on any working cache → machine-stable and gated.
        "stable_ratios": ["speedup_cached_vs_cold"],
    }


def bench_seed_commit(
    ref: str,
    repetitions: int,
    list_size: int,
    days: int,
    rounds: int,
) -> dict:
    """Measure the actual seed commit in a temporary git worktree."""
    worktree = REPO_ROOT / ".bench-seed-ref"
    added = subprocess.run(
        ["git", "worktree", "add", "--force", str(worktree), ref],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if added.returncode != 0:
        raise SystemExit(
            f"--seed-ref {ref!r}: git worktree add failed: "
            f"{added.stderr.strip()}"
        )
    try:
        script = (
            "import time, json, sys\n"
            "from repro.experiments import fig6_server_flight_loss as fig6\n"
            "from repro.experiments import table1_cdn_deployment as t1\n"
            "def best(fn):\n"
            "    b = float('inf')\n"
            f"    for _ in range({rounds}):\n"
            "        t0 = time.perf_counter(); fn()\n"
            "        b = min(b, time.perf_counter() - t0)\n"
            "    return b\n"
            f"f6 = best(lambda: fig6.run(http='h1', repetitions={repetitions}))\n"
            f"tb = best(lambda: t1.run(list_size={list_size}, days={days}))\n"
            "print(json.dumps({'fig6_s': f6, 'table1_s': tb}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(worktree / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=worktree, env=env, check=True, capture_output=True, text=True,
        )
        measured = json.loads(out.stdout.strip().splitlines()[-1])
        return {"ref": ref, **measured}
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(worktree)],
            cwd=REPO_ROOT, check=False, capture_output=True,
        )
        shutil.rmtree(worktree, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workloads for CI smoke runs")
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds per leg")
    parser.add_argument("--seed-ref", default=None,
                        help="git ref of the seed commit to measure as an "
                             "external reference (runs in a temp worktree)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_parallel.json"))
    args = parser.parse_args(argv)

    repetitions = 5 if args.quick else FIG6_REPETITIONS
    list_size = 10_000 if args.quick else TABLE1_LIST_SIZE
    days = 1 if args.quick else TABLE1_DAYS
    rounds = 1 if args.quick else args.rounds

    report = {
        "description": (
            "Wall-clock of the seed serial pipeline vs the parallel "
            "experiment runtime (session backends / suite-planned passes) on "
            "identical workloads. Best-of-N timings."
        ),
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "note": (
                "on single-CPU containers the speedup comes from the "
                "slim stats artifacts, the simulator hot-path work, and "
                "the batch scan engine; multi-core hosts additionally "
                "scale with workers"
            ),
        },
        "quick": args.quick,
        "rounds": rounds,
        "benchmarks": {},
    }
    sweep_reps = 3 if args.quick else SWEEP_REPETITIONS
    print(f"fig6 standalone: {repetitions} reps ...", flush=True)
    report["benchmarks"]["fig6_standalone"] = bench_fig6(repetitions, rounds)
    print(json.dumps(report["benchmarks"]["fig6_standalone"], indent=2), flush=True)
    print(f"table1: {list_size} domains x {days} days ...", flush=True)
    report["benchmarks"]["table1"] = bench_table1(list_size, days, rounds)
    print(json.dumps(report["benchmarks"]["table1"], indent=2), flush=True)
    print(f"suite fig12+fig6: {sweep_reps} reps ...", flush=True)
    report["benchmarks"]["suite_fig12_fig6"] = bench_suite(sweep_reps, rounds)
    print(json.dumps(report["benchmarks"]["suite_fig12_fig6"], indent=2), flush=True)
    print(f"distributed fig12+fig6 (2 localhost workers): {sweep_reps} reps ...",
          flush=True)
    report["benchmarks"]["suite_distributed"] = bench_distributed(
        sweep_reps, rounds
    )
    print(json.dumps(report["benchmarks"]["suite_distributed"], indent=2),
          flush=True)
    print(
        f"profile sweep lab_cc (2 localhost workers): {sweep_reps} reps ...",
        flush=True,
    )
    report["benchmarks"]["profile_sweep_distributed"] = bench_profile_sweep(
        sweep_reps, rounds
    )
    print(
        json.dumps(report["benchmarks"]["profile_sweep_distributed"], indent=2),
        flush=True,
    )
    print(
        f"distributed wire volume: {sweep_reps} reps ...",
        flush=True,
    )
    report["benchmarks"]["suite_distributed_v4"] = bench_distributed_v4(
        sweep_reps, rounds
    )
    print(json.dumps(report["benchmarks"]["suite_distributed_v4"], indent=2),
          flush=True)
    print(
        "distributed cached re-run (warm worker caches): "
        f"{CACHED_SUITE_REPETITIONS} reps ...",
        flush=True,
    )
    report["benchmarks"]["suite_distributed_cached"] = bench_distributed_cached(
        CACHED_SUITE_REPETITIONS, rounds
    )
    print(json.dumps(report["benchmarks"]["suite_distributed_cached"], indent=2),
          flush=True)
    # Below ~50k targets the per-scan fixed costs (pool spawn, fleet
    # handshake) dominate the timing legs and the gated protocol ratio
    # gets noisy; 50k keeps it stable while the RSS 10x leg stays quick.
    from bench_stream import STREAM_TARGETS, bench_stream_scan

    stream_targets = 50_000 if args.quick else STREAM_TARGETS
    print(f"streaming scan: {stream_targets} targets (+10x RSS leg) ...",
          flush=True)
    report["benchmarks"]["stream_scan"] = bench_stream_scan(stream_targets, rounds)
    print(json.dumps(report["benchmarks"]["stream_scan"], indent=2), flush=True)

    if args.seed_ref:
        print(f"seed commit reference ({args.seed_ref}) ...", flush=True)
        seed = bench_seed_commit(
            args.seed_ref, repetitions, list_size, days, rounds
        )
        report["seed_commit_reference"] = {
            **seed,
            "note": (
                "the unmodified seed commit measured on this machine in "
                "a git worktree; reproduces the pre-optimization serial "
                "baseline exactly (rerun with --seed-ref to reproduce)"
            ),
        }
        folds = (
            ("fig6_standalone", "fig6_s"),
            ("table1", "table1_s"),
        )
        for name, key in folds:
            entry = report["benchmarks"][name]
            entry["serial_seed_commit_s"] = seed[key]
            entry["speedup_4w"] = round(seed[key] / entry["parallel_4w_s"], 2)
            entry["speedup_2w"] = round(seed[key] / entry["parallel_2w_s"], 2)
        print(json.dumps(report["seed_commit_reference"], indent=2), flush=True)
    else:
        # Without the seed-commit reference the in-tree serial leg is
        # the baseline (it still benefits from this PR's hot-path work,
        # so these ratios understate the end-to-end win).
        for name in ("fig6_standalone", "table1"):
            entry = report["benchmarks"][name]
            entry["speedup_4w"] = entry["speedup_4w_vs_serial"]
            entry["speedup_2w"] = entry["speedup_2w_vs_serial"]

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
