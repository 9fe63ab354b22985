"""``python -m repro`` — the experiment suite command line.

The CLI is a thin consumer of the :mod:`repro.api` façade: it parses
arguments into a :class:`~repro.api.RunRequest` plus a typed backend
config, opens a :class:`~repro.api.Session`, and renders the report.
All validation and execution behavior lives in the façade — anything
the CLI can do, an embedding service or notebook can do identically.

Subcommands:

``repro list``
    The registered experiments (id, paper artifact, kind, required
    artifact level, the sources an observer reads and where its cells
    end, default cell count). ``--markdown`` emits the
    EXPERIMENTS.md index (that file is generated by this command).
``repro plan fig6 fig12``
    The suite plan for a selection: per-experiment cells, the union
    after cross-experiment dedup, and how many of those cells retain
    a trace for which experiments' observers.
``repro run fig6 table1 --workers 4 --out results/``
    Execute a suite: unique cells run once on one shared runner,
    results fan back out per experiment, rendered tables go to stdout,
    and ``--out`` writes one JSON file per experiment plus a
    ``suite.json`` bundle (every file stamped with the bundle
    ``schema_version``).

``repro run all --smoke`` runs every registered experiment at its
smoke-sized parameters (the CI configuration). Per-experiment
parameter overrides use ``--param EXP.key=value`` (repeatable), e.g.
``repro run fig6 --param fig6.rtt_ms=50``; values parse as JSON with
a plain-string fallback. ``--events`` streams the façade's typed run
events (suite planned, chunks dispatched, workers joined/lost, ...)
as they happen. ``--cache-dir DIR`` attaches the durable
content-addressed result cache: a rerun of already computed cells
replays them from disk (byte-identical bundle) instead of executing,
and since each cell is stored as it completes, the same command
started again after a crash executes only what was not stored.

``repro scan`` runs the streaming wild-scan pipeline: a lazy target
source (``--source tranco|synthetic``, ``--targets N``) sharded over
any backend (``--shard-size``), aggregated into mergeable sketches
with flat coordinator memory, and served from ``--cache-dir`` on
rescans (a SIGKILLed scan started again with the identical command
renders a byte-identical summary).
See the streaming section of PERFORMANCE.md.

The service verbs run suites through an always-on daemon instead of
the calling process: ``repro serve --listen PORT --pool N --cache-dir
DIR`` starts it, and ``repro submit`` / ``status`` / ``watch`` /
``fetch`` / ``cancel`` talk to it (``--service HOST:PORT`` or
``unix:PATH``; the ``REPRO_SERVICE`` environment variable supplies
the default, ``--auth-token`` / ``--token`` /
``REPRO_SERVICE_TOKEN`` add bearer-token auth). A fetched bundle is
byte-identical to a local ``repro run --out`` of the same request.
See the Service section of API.md.

Predictable failures exit with distinct codes instead of tracebacks:
3 unknown experiment, 4 invalid override, 5 backend failure, 6 worker
authentication failure, 7 unreadable bundle version, 9 service/job
failure, 10 an experiment's observe failed on a cell (2 stays argparse
usage errors, 1 unexpected crashes; 8 is retired).

``repro worker --retry SECS`` is how long a worker dials, at start
and again after an abrupt coordinator loss. See RESILIENCE.md.

Multi-host execution pairs two subcommands: ``repro run ...
--backend distributed --listen PORT --min-workers N`` serves the
planned suite's chunks over TCP, and ``repro worker --connect
HOST:PORT`` (run anywhere that can reach the coordinator) executes
them. Results are reassembled deterministically, so distributed
bundles are byte-identical to ``--backend local`` runs.

The wire protocol carries pickled payloads, so both sides support a
shared auth key (``--auth-key-file`` or the ``REPRO_AUTH_KEY``
environment variable) that gates every connection behind a mutual
HMAC handshake before any frame is accepted. Binding a non-loopback
address (``--bind 0.0.0.0``) *requires* a key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.render import render_table
from repro.api import (
    BackendConfig,
    DistributedConfig,
    JobStatus,
    LocalConfig,
    ReproError,
    RunEvent,
    RunRequest,
    ServiceClient,
    ServiceError,
    Session,
    WorkerJoined,
    WorkerLost,
    describe_experiments,
    write_bundle,
)
from repro.api.client import error_type, split_host_port
from repro.experiments.registry import REGISTRY
from repro.runtime.distributed import DEFAULT_RETRY_WINDOW, worker_main

# -- list ---------------------------------------------------------------


def _spec_rows() -> List[List[object]]:
    rows: List[List[object]] = []
    for spec in REGISTRY.specs():
        cell_count = len(spec.plan_cells(spec.resolve_params()))
        rows.append(
            [
                spec.id,
                spec.paper,
                spec.kind,
                spec.artifact_level.value,
                ", ".join(source.describe() for source in spec.reads) or "-",
                spec.describe()["ends"] or "-",
                cell_count if cell_count else "-",
                spec.title,
            ]
        )
    return rows


LIST_HEADERS = ["id", "paper", "kind", "artifact level", "reads", "ends", "cells", "title"]


def experiments_markdown() -> str:
    """The generated EXPERIMENTS.md content."""
    lines = [
        "# Experiments",
        "",
        "Generated from the experiment registry by "
        "`PYTHONPATH=src python -m repro list --markdown > EXPERIMENTS.md` "
        "— do not edit by hand.",
        "",
        "Each experiment declares an `ExperimentSpec` "
        "(`src/repro/experiments/spec.py`): its paper artifact, required "
        "artifact retention level, the `(scenario, seed)` cells it "
        "demands, and a pure aggregator. `python -m repro run <ids>` "
        "executes any selection as one suite — cells shared between "
        "experiments (fig6 is the 9 ms column of fig12) are planned, "
        "deduplicated, and executed exactly once. The CLI is a thin "
        "client of the stable `repro.api` façade — see API.md to run "
        "the same selections from services or notebooks.",
        "",
        "`reads` is what a cell retains for the experiment beyond "
        "connection stats (an experiment above `stats` level declares "
        "which qlogs and packet captures its `observe` reads; nothing "
        "else is kept). `ends` is where such a cell stops: once every "
        "experiment reading it has its answer (a spec's `answered`), "
        "unless a `stats` experiment reads the same cell, which then runs "
        "whole; `-` runs every cell to the end. "
        "`cells` is the simulator cell count at default parameters; "
        "`model` experiments evaluate closed-form models and `wild` "
        "experiments drive the emulated internet-measurement pipelines, "
        "neither through matrix cells.",
        "",
        "Reruns are free with a durable cache: `repro run ... "
        "--cache-dir DIR` (or submitting to a `repro serve` daemon "
        "started with `--cache-dir`) stores every completed cell as a "
        "content-addressed blob, so a repeated selection — even after "
        "a process or daemon restart — replays from disk without "
        "re-executing cells and renders byte-identical bundles; see "
        "the Service section of API.md.",
        "",
        "| " + " | ".join(LIST_HEADERS) + " |",
        "|" + "---|" * len(LIST_HEADERS),
    ]
    for row in _spec_rows():
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    lines += [
        "",
        "Common commands:",
        "",
        "```",
        "PYTHONPATH=src python -m repro list",
        "PYTHONPATH=src python -m repro plan fig6 fig12",
        "PYTHONPATH=src python -m repro run fig6 table1 --workers 4 --out results/",
        "PYTHONPATH=src python -m repro run fig6 --param fig6.rtt_ms=50",
        "PYTHONPATH=src python -m repro run all --smoke",
        "```",
        "",
    ]
    return "\n".join(lines)


def cmd_list(args: argparse.Namespace) -> int:
    if args.markdown:
        print(experiments_markdown())
    elif args.json:
        print(json.dumps(describe_experiments(), indent=2))
    else:
        print(render_table(LIST_HEADERS, _spec_rows(), title="Registered experiments"))
    return 0


# -- request construction -----------------------------------------------


def _usage_error(message: str) -> SystemExit:
    """A usage mistake, exiting with argparse's code 2 — the module
    contract reserves 1 for unexpected crashes."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def parse_params(params: Optional[Sequence[str]]) -> dict:
    """``EXP.key=value`` strings → ``{exp_id: {key: value}}`` overrides.

    Values parse as JSON (``50``, ``true``, ``[1, 2]``, ``"h3"``) and
    fall back to the raw string, so ``--param fig6.http=h3`` works
    without quoting gymnastics. Experiment ids and keys are validated
    by the façade, not here.
    """
    overrides: dict = {}
    for item in params or ():
        spec_part, sep, value_text = item.partition("=")
        if not sep:
            raise _usage_error(f"--param expects EXP.key=value, got {item!r}")
        exp_id, dot, key = spec_part.partition(".")
        if not dot or not exp_id or not key:
            raise _usage_error(
                f"--param expects EXP.key=value (e.g. fig6.rtt_ms=50), "
                f"got {item!r}"
            )
        try:
            value = json.loads(value_text)
        except ValueError:
            value = value_text
        overrides.setdefault(exp_id, {})[key] = value
    return overrides


def build_request(args: argparse.Namespace) -> RunRequest:
    return RunRequest(
        experiments=tuple(args.experiments),
        overrides=parse_params(getattr(args, "param", None)),
        smoke=args.smoke,
    )


def resolve_auth_key(key_file: Optional[str]) -> Optional[bytes]:
    """The shared distributed-protocol secret: ``--auth-key-file``
    wins, then the ``REPRO_AUTH_KEY`` environment variable."""
    if key_file:
        path = Path(key_file)
        if not path.is_file():
            raise SystemExit(f"auth key file not found: {key_file}")
        key = path.read_bytes().strip()
        if not key:
            raise SystemExit(f"auth key file is empty: {key_file}")
        return key
    # stripped like the file path, so the same secret delivered either
    # way (trailing newline and all) yields the same key bytes
    env = os.environ.get("REPRO_AUTH_KEY", "").strip()
    return env.encode() if env else None


def build_backend_config(args: argparse.Namespace) -> BackendConfig:
    if args.backend == "distributed":
        if args.workers:
            raise _usage_error(
                "--workers sizes the local pool; a distributed run executes on its worker fleet"
            )
        return DistributedConfig(
            listen=args.listen,
            bind=args.bind,
            min_workers=args.min_workers,
            worker_timeout=args.worker_timeout,
            auth_key=resolve_auth_key(args.auth_key_file),
        )
    return LocalConfig(workers=args.workers)


# -- plan ---------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    with Session() as session:
        plan = session.plan(build_request(args))
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.describe())
    return 0


# -- run ----------------------------------------------------------------


def _event_printer(args: argparse.Namespace):
    """The CLI's event sink: every event with ``--events``, worker
    membership always (joining/losing hosts is what a distributed
    operator is waiting on)."""
    if args.events:
        return lambda event: print(f"event: {event.describe()}", flush=True)
    if args.backend == "distributed":

        def membership(event: RunEvent) -> None:
            if isinstance(event, (WorkerJoined, WorkerLost)):
                print(f"event: {event.describe()}", flush=True)

        return membership
    return None


def _open_session(args: argparse.Namespace) -> Session:
    """The session ``repro run`` and ``repro scan`` execute on — one
    backend either way — announced the way an operator needs it."""
    config = build_backend_config(args)
    session = Session(
        config,
        on_event=_event_printer(args),
        cache_dir=args.cache_dir,
    )
    if isinstance(config, DistributedConfig):
        print(
            f"distributed backend listening on {session.address} "
            f"(auth {'on' if config.auth_key else 'off'}); "
            f"waiting for {config.min_workers} worker(s)",
            flush=True,
        )
        if config.auth_key is None:
            print(
                f"warning: no auth key set — any local process that can "
                f"reach {session.address} can run code as this user "
                "(set --auth-key-file or REPRO_AUTH_KEY)",
                file=sys.stderr,
                flush=True,
            )
    return session


def cmd_run(args: argparse.Namespace) -> int:
    request = build_request(args)
    with _open_session(args) as session:
        report = session.run(request)
        print(report.render())
        if args.cache_dir is not None:
            print(
                f"disk cache: {report.extra.get('disk_cache_hits', 0)} hit(s), "
                f"{report.extra.get('disk_cache_misses', 0)} miss(es) "
                f"under {args.cache_dir}"
            )
        stats = session.backend_stats
        if stats is not None:
            print(
                f"distributed: {stats.chunks_dispatched} chunk(s) dispatched "
                f"over {stats.workers_used} of {stats.workers_seen} worker(s), "
                f"{stats.chunks_requeued} requeued, "
                f"{stats.workers_lost} worker(s) lost"
            )
        if args.out is not None:
            written = write_bundle(report, Path(args.out))
            print(f"wrote {len(written)} files under {args.out}")
    return 0


# -- scan ---------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    from repro.wild.stream import DEFAULT_SHARD_SIZE, ScanRequest

    source = {"kind": args.source, "seed": args.seed}
    source["list_size" if args.source == "tranco" else "count"] = args.targets
    request = ScanRequest(
        source=source,
        shard_size=args.shard_size if args.shard_size is not None else DEFAULT_SHARD_SIZE,
        vantage_names=tuple(args.vantage) if args.vantage else None,
        days=args.days,
        seed=args.seed,
        probe_engine=args.probe_engine,
    ).validated()
    with _open_session(args) as session:
        report = session.scan(request)
        print(report.render())  # shard accounting included
        if args.out is not None:
            Path(args.out).write_text(report.to_json())
            print(f"wrote scan summary to {args.out}")
    return 0


# -- worker -------------------------------------------------------------


def parse_address(value: str) -> tuple:
    """``--connect HOST:PORT`` → ``(host, port)``; a malformed address
    is a usage error (exit 2)."""
    try:
        return split_host_port(value)
    except ValueError as exc:
        raise _usage_error(f"--connect {exc}") from None


def cmd_worker(args: argparse.Namespace) -> int:
    host, port = parse_address(args.connect)
    if not 0 < args.heartbeat < math.inf:
        raise _usage_error(f"--heartbeat must be finite and > 0 seconds, got {args.heartbeat}")
    if not 0 <= args.retry < math.inf:
        raise _usage_error(f"--retry must be finite and >= 0 seconds, got {args.retry}")
    # SIGTERM asks the worker to *drain*: finish the in-flight chunk,
    # tell the coordinator (DRAIN frame, so nothing is requeued or
    # counted as lost), then exit 0 — the polite shutdown for elastic
    # fleets scaling down mid-suite.
    drain_event = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: drain_event.set())
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    return worker_main(
        host,
        port,
        heartbeat_interval=args.heartbeat,
        retry_for=args.retry,
        auth_key=resolve_auth_key(args.auth_key_file),
        log=lambda message: print(f"worker: {message}", flush=True),
        drain_event=drain_event,
    )


# -- service ------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceDaemon, ServiceManager

    if args.pool < 1:
        raise _usage_error("--pool must be >= 1")
    auth_token = args.auth_token or os.environ.get("REPRO_SERVICE_TOKEN", "").strip() or None
    manager = ServiceManager(
        pool=args.pool,
        cache_dir=args.cache_dir,
        workers=args.workers,
    )
    daemon = ServiceDaemon(
        manager,
        socket_path=args.socket,
        host=args.bind,
        port=args.listen,
        auth_token=auth_token,
    )
    # SIGTERM = orderly shutdown (finish the running job, close
    # sessions); the durable cache makes even a SIGKILL recoverable.
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: daemon.stop())
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass

    def announce() -> None:
        address = daemon.wait_started()
        cache_note = f"cache {args.cache_dir}" if args.cache_dir else "no cache"
        auth_note = "auth on" if auth_token else "auth off"
        print(
            f"service listening on {address} "
            f"(pool {args.pool}, workers {args.workers}, {cache_note}, {auth_note})",
            flush=True,
        )

    threading.Thread(target=announce, daemon=True).start()
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
    finally:
        manager.close()
    print("service stopped", flush=True)
    return 0


def service_client(args: argparse.Namespace) -> ServiceClient:
    """The daemon client for ``--service`` (or the ``REPRO_SERVICE``
    environment variable)."""
    address = args.service or os.environ.get("REPRO_SERVICE", "").strip()
    if not address:
        raise _usage_error(
            "no service address: pass --service HOST:PORT (or unix:PATH), "
            "or set REPRO_SERVICE"
        )
    return ServiceClient(address, token=getattr(args, "token", None))


def cmd_submit(args: argparse.Namespace) -> int:
    client = service_client(args)
    handle = client.submit(build_request(args))
    record = handle.status()
    print(json.dumps(record.to_dict(), indent=2))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    client = service_client(args)
    if args.job_id is None:
        doc = [record.to_dict() for record in client.jobs()]
    else:
        doc = client.status(args.job_id).to_dict()
    print(json.dumps(doc, indent=2))
    return 0


def _finish_record(record) -> int:
    """Map a terminal job record to this process's exit code — a
    watched/fetched failure exits exactly like the same local run
    (the daemon's ``error_kind`` names the typed error to re-raise)."""
    if record.status is JobStatus.SUCCEEDED:
        return 0
    raise error_type(record.error_kind)(
        record.error or f"job {record.job_id} {record.status.value}"
    )


def cmd_watch(args: argparse.Namespace) -> int:
    client = service_client(args)
    for event in client.events(args.job_id):
        print(f"event: {event.describe()}", flush=True)
    record = client.status(args.job_id)
    print(json.dumps(record.to_dict(), indent=2))
    return _finish_record(record)


def cmd_fetch(args: argparse.Namespace) -> int:
    client = service_client(args)
    try:
        record = client.wait(args.job_id, timeout=args.timeout)
    except TimeoutError as exc:
        raise ServiceError(str(exc))
    if record.status is JobStatus.SUCCEEDED:
        written = client.fetch_to(args.job_id, Path(args.out))
        print(f"wrote {len(written)} files under {args.out}")
    return _finish_record(record)


def cmd_cancel(args: argparse.Namespace) -> int:
    client = service_client(args)
    print(json.dumps(client.cancel(args.job_id).to_dict(), indent=2))
    return 0


# -- entry point --------------------------------------------------------


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    """The session flags shared by ``repro run`` and ``repro scan`` —
    one vocabulary (events, cache, backend and fleet) for
    suites and wild scans; see :func:`_open_session`."""
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="local worker processes for cells or shards (0 = in-process)",
    )
    p.add_argument(
        "--events",
        action="store_true",
        help="stream typed events (planning, chunk/shard dispatch and "
        "completion, worker membership) to stdout",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="durable content-addressed result cache shared by 'repro "
        "run' and 'repro scan': cells and shards are stored here as "
        "they complete and replayed by any later run or scan that plans "
        "them — across processes, restarts and crashes (see "
        "RESILIENCE.md) — with byte-identical output",
    )
    p.add_argument(
        "--backend",
        choices=("local", "distributed"),
        default="local",
        help="where chunks execute: this machine (local) or "
        "connected 'repro worker' processes (distributed)",
    )
    p.add_argument(
        "--listen",
        type=int,
        default=0,
        metavar="PORT",
        help="distributed only: coordinator port (0 = ephemeral, printed at startup)",
    )
    p.add_argument(
        "--bind",
        default="127.0.0.1",
        metavar="HOST",
        help="distributed only: coordinator bind address (use 0.0.0.0 for off-host workers)",
    )
    p.add_argument(
        "--min-workers",
        type=int,
        default=1,
        metavar="N",
        help="distributed only: wait for N workers before dispatching",
    )
    p.add_argument(
        "--worker-timeout",
        type=float,
        default=120.0,
        metavar="SECS",
        help="distributed only: how long to wait for --min-workers "
        "(and for replacements after total worker loss)",
    )
    p.add_argument(
        "--auth-key-file",
        default=None,
        metavar="PATH",
        help="distributed only: shared secret gating every connection behind "
        "a mutual HMAC handshake (REPRO_AUTH_KEY also works; required for "
        "non-loopback --bind)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments as planned suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the experiment registry")
    p_list.add_argument(
        "--markdown",
        action="store_true",
        help="emit the generated EXPERIMENTS.md index",
    )
    p_list.add_argument("--json", action="store_true", help="emit JSON")
    p_list.set_defaults(func=cmd_list)

    p_plan = sub.add_parser("plan", help="show the deduplicated suite plan for a selection")
    p_plan.add_argument("experiments", nargs="+", metavar="ID")
    p_plan.add_argument("--smoke", action="store_true", help="plan at smoke-sized parameters")
    p_plan.add_argument(
        "--param",
        action="append",
        metavar="EXP.KEY=VALUE",
        help="per-experiment parameter override (repeatable), e.g. fig6.rtt_ms=50",
    )
    p_plan.add_argument("--json", action="store_true", help="emit JSON")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="execute a suite of experiments")
    p_run.add_argument("experiments", nargs="+", metavar="ID")
    p_run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write per-experiment JSON + suite.json bundle",
    )
    p_run.add_argument("--smoke", action="store_true", help="run at smoke-sized parameters (CI)")
    p_run.add_argument(
        "--param",
        action="append",
        metavar="EXP.KEY=VALUE",
        help="per-experiment parameter override (repeatable), e.g. fig6.rtt_ms=50",
    )
    _add_session_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser(
        "scan",
        help="stream a sharded wild scan over the backend "
        "(sketch aggregation, flat memory, crash-safe with --cache-dir)",
    )
    p_scan.add_argument(
        "--source",
        choices=("tranco", "synthetic"),
        default="tranco",
        help="target source: the emulated Tranco toplist or the "
        "synthetic load generator (both stream shard-by-shard; the "
        "full target list is never materialized anywhere)",
    )
    p_scan.add_argument(
        "--targets",
        type=int,
        default=100_000,
        metavar="N",
        help="target count (tranco list size / synthetic count)",
    )
    p_scan.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="targets per dispatched shard (default 5000)",
    )
    p_scan.add_argument(
        "--vantage",
        action="append",
        default=None,
        metavar="NAME",
        help="vantage point to probe from (repeatable; default: all)",
    )
    p_scan.add_argument("--days", type=int, default=1, metavar="N", help="repetitions per vantage")
    p_scan.add_argument("--seed", type=int, default=0, metavar="N", help="toplist + probe seed")
    p_scan.add_argument(
        "--probe-engine",
        choices=("analytic", "batch"),
        default="analytic",
        help="per-probe engine; analytic keys each probe's rng by "
        "(seed, vantage, day, domain), making summaries independent "
        "of sharding geometry (see PERFORMANCE.md)",
    )
    p_scan.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the scan summary JSON (fingerprint + sketch) here",
    )
    _add_session_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_worker = sub.add_parser(
        "worker",
        help="serve matrix chunks for a distributed 'repro run' coordinator",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by 'repro run --backend distributed'",
    )
    p_worker.add_argument(
        "--retry",
        type=float,
        default=DEFAULT_RETRY_WINDOW,
        metavar="SECS",
        help="keep dialing the coordinator this long, at start (workers "
        "may start before it listens) and again after an abrupt loss "
        "(a clean SHUTDOWN/DRAIN exits)",
    )
    p_worker.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        metavar="SECS",
        help="heartbeat interval",
    )
    p_worker.add_argument(
        "--auth-key-file",
        default=None,
        metavar="PATH",
        help="shared secret matching the coordinator's --auth-key-file "
        "(REPRO_AUTH_KEY also works)",
    )
    # A worker keeps no results; the flag is accepted and ignored so
    # fleets started with it keep starting.
    p_worker.add_argument("--no-cache", action="store_true", help=argparse.SUPPRESS)
    p_worker.set_defaults(func=cmd_worker)

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on experiment service daemon",
    )
    listen_group = p_serve.add_mutually_exclusive_group()
    listen_group.add_argument(
        "--listen",
        type=int,
        default=0,
        metavar="PORT",
        help="TCP port to serve on (0 = ephemeral, printed at startup)",
    )
    listen_group.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    p_serve.add_argument(
        "--bind",
        default="127.0.0.1",
        metavar="HOST",
        help="TCP bind address (loopback by default; the job API runs "
        "arbitrary registered experiments, so expose it deliberately)",
    )
    p_serve.add_argument(
        "--pool",
        type=int,
        default=1,
        metavar="N",
        help="concurrent jobs: each pool slot keeps one persistent "
        "session (and its local worker pool) alive across jobs",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="local worker processes per pool session",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="durable result cache shared by every pool session; "
        "resubmitted suites — even after a daemon restart — replay "
        "from it instead of re-executing cells",
    )
    p_serve.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="bearer token every request must present "
        "(Authorization: Bearer <token>, compared constant-time; "
        "unauthenticated requests get 401); the REPRO_SERVICE_TOKEN "
        "environment variable also works",
    )
    p_serve.set_defaults(func=cmd_serve)

    service_help = (
        "service address (HOST:PORT or unix:PATH); the REPRO_SERVICE "
        "environment variable supplies the default"
    )
    token_help = (
        "bearer token for a daemon started with --auth-token; the "
        "REPRO_SERVICE_TOKEN environment variable supplies the default"
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a suite to a running 'repro serve' daemon",
    )
    p_submit.add_argument("experiments", nargs="+", metavar="ID")
    p_submit.add_argument("--service", default=None, metavar="ADDR", help=service_help)
    p_submit.add_argument("--token", default=None, metavar="TOKEN", help=token_help)
    p_submit.add_argument("--smoke", action="store_true", help="run at smoke-sized parameters")
    p_submit.add_argument(
        "--param",
        action="append",
        metavar="EXP.KEY=VALUE",
        help="per-experiment parameter override (repeatable), e.g. fig6.rtt_ms=50",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status",
        help="job status from a 'repro serve' daemon (all jobs when no id given)",
    )
    p_status.add_argument("job_id", nargs="?", default=None, metavar="JOB_ID")
    p_status.add_argument("--service", default=None, metavar="ADDR", help=service_help)
    p_status.add_argument("--token", default=None, metavar="TOKEN", help=token_help)
    p_status.set_defaults(func=cmd_status)

    p_watch = sub.add_parser(
        "watch",
        help="stream a job's run events live until it finishes",
    )
    p_watch.add_argument("job_id", metavar="JOB_ID")
    p_watch.add_argument("--service", default=None, metavar="ADDR", help=service_help)
    p_watch.add_argument("--token", default=None, metavar="TOKEN", help=token_help)
    p_watch.set_defaults(func=cmd_watch)

    p_fetch = sub.add_parser(
        "fetch",
        help="download a finished job's bundle (byte-identical to 'repro run --out')",
    )
    p_fetch.add_argument("job_id", metavar="JOB_ID")
    p_fetch.add_argument("--service", default=None, metavar="ADDR", help=service_help)
    p_fetch.add_argument("--token", default=None, metavar="TOKEN", help=token_help)
    p_fetch.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="directory to write the bundle files into",
    )
    p_fetch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="wait this long for the job to finish (default: forever)",
    )
    p_fetch.set_defaults(func=cmd_fetch)

    p_cancel = sub.add_parser(
        "cancel",
        help="cancel a job (guaranteed while still queued)",
    )
    p_cancel.add_argument("job_id", metavar="JOB_ID")
    p_cancel.add_argument("--service", default=None, metavar="ADDR", help=service_help)
    p_cancel.add_argument("--token", default=None, metavar="TOKEN", help=token_help)
    p_cancel.set_defaults(func=cmd_cancel)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # The façade's typed failures are user errors, not bugs: one
        # line on stderr and a distinct exit code per class.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
