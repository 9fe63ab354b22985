#!/usr/bin/env python3
"""CI service smoke: the ``repro serve`` daemon must survive a SIGKILL
and serve a previously submitted suite from its durable disk cache —
byte-identical to a direct local run.

The drill (see the Service section of API.md):

1. Run the reference suite locally (``repro run all --smoke --out``).
2. Start ``repro serve`` with a one-worker pool and a durable
   ``--cache-dir``; submit the same suite, watch its events (the
   stream must relay at least ``suite_planned``, ``chunk_completed``
   and ``suite_completed`` to a live client mid-run), and fetch the
   bundle.
3. SIGKILL the daemon — no orderly shutdown, nothing flushed.
4. Restart it on the same cache directory, submit the identical
   suite again, and assert the job's summary shows **only** disk-cache
   hits (``disk_cache_misses == 0``): the warm start survived the
   daemon's death because the cache is content-addressed files, not
   process state.
5. Submit the identical suite a second time to the restarted daemon:
   that job is served the plan the first one made (no experiment is
   planned again) and, like it, only disk-cache hits.
6. Send the restarted daemon warm jobs of the benchmark's
   ``service_mix`` request until it has run 10× the job table's bound
   (``FINISHED_JOBS_KEPT``, 128 finished jobs), and read its ``VmHWM``
   and ``VmRSS`` from ``/proc/<pid>/status`` at 1× and at 10×. The
   table forgets the oldest finished job as each new one finishes, so
   the phase fails when either grows by more than 2 KB per job between
   the two, when the first job's id does not answer ``UnknownJob``, or
   when ``/v1/health``'s ``held_bytes`` exceeds the bound times the
   largest document a kept job holds.
7. Byte-diff all three fetched bundles against the direct local bundle.
"""

import json
import os
import re
import signal
import subprocess
import sys
import zlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SUITE = ["all", "--smoke"]

#: The memory phase: the ``service_mix`` benchmark request, how many
#: job-table bounds of warm jobs it sends, and the RSS a warm job may
#: add once the table is full.
MEMORY_EXPERIMENTS = ("fig5", "fig6", "fig7", "fig12", "fig13")
MEMORY_BOUNDS = 10
RSS_PER_JOB_KB = 2.0


def log(message: str) -> None:
    print(f"service-smoke: {message}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=child_env(),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        **kwargs,
    )


def check(result: subprocess.CompletedProcess, what: str) -> subprocess.CompletedProcess:
    if result.returncode != 0:
        print(result.stdout, flush=True)
        print(result.stderr, file=sys.stderr, flush=True)
        raise RuntimeError(f"{what} exited with {result.returncode}")
    return result


def start_daemon(cache_dir: Path, logfile: Path):
    """Start ``repro serve`` and return ``(proc, address)`` once it
    announces its listening address."""
    handle = open(logfile, "ab")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--listen", "0", "--pool", "1", "--workers", "2",
            "--cache-dir", str(cache_dir),
        ],
        env=child_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=handle,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"service listening on (\S+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"daemon never announced its address: {line!r}")
    return proc, match.group(1)


def submit_and_fetch(
    address: str, out_dir: Path, timeout: float, expect_chunks: bool = True
) -> dict:
    """Submit the suite, watch its event stream live, fetch the
    bundle; returns the job's final summary. ``expect_chunks=False``
    for cache-warmed reruns, which replay every cell from disk and so
    legitimately dispatch no chunks."""
    record = json.loads(
        check(repro(["submit", *SUITE, "--service", address]), "submit").stdout
    )
    job_id = record["job_id"]
    log(f"  submitted {job_id}")

    watch = check(
        repro(["watch", job_id, "--service", address], timeout=timeout), "watch"
    )
    kinds = ("suite_planned", "chunk_completed", "suite_completed")
    if not expect_chunks:
        kinds = ("suite_planned", "suite_completed")
    for kind in kinds:
        if f"event: {kind}" not in watch.stdout:
            print(watch.stdout, flush=True)
            raise RuntimeError(f"event stream never relayed {kind}")
    log(f"  event stream relayed {'/'.join(kinds)}")

    check(
        repro(["fetch", job_id, "--service", address, "--out", str(out_dir)]),
        "fetch",
    )
    status = json.loads(
        check(repro(["status", job_id, "--service", address]), "status").stdout
    )
    return status["summary"]


def expect_only_hits(summary: dict, what: str) -> None:
    hits = summary.get("disk_cache_hits", 0)
    misses = summary.get("disk_cache_misses", 0)
    log(f"  {what}: {hits} cache hit(s), {misses} miss(es)")
    if hits == 0 or misses != 0:
        raise RuntimeError(
            f"restarted daemon re-executed cells: {hits} hit(s), "
            f"{misses} miss(es) — the durable cache did not survive"
        )


def status_kb(pid: int, field: str) -> int:
    """One ``kB`` line of ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        name, _, value = line.partition(":")
        if name == field:
            return int(value.split()[0])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def memory_phase(pid: int, address: str, timeout: float) -> None:
    """Warm jobs through the daemon from a full job table to 10× its
    bound: the daemon must stay flat and forget the oldest jobs."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.api import RunRequest, ServiceClient
    from repro.api.jobs import FINISHED_JOBS_KEPT
    from repro.errors import UnknownJob
    from repro.schema import BUNDLE_SCHEMA_VERSION
    from repro.service.http import json_body

    client = ServiceClient(address)
    request = RunRequest(MEMORY_EXPERIMENTS, smoke=True)
    first = client.submit(request)
    first.result(timeout)  # its cells and plan are held from here

    def run(count: int):
        for _ in range(count):
            client.submit(request).result(timeout)
        return status_kb(pid, "VmHWM"), status_kb(pid, "VmRSS")

    full = run(FINISHED_JOBS_KEPT - 1)  # the table is full from here
    jobs = FINISHED_JOBS_KEPT * (MEMORY_BOUNDS - 1)
    end = run(jobs)
    hwm, rss = ((b - a) / jobs for a, b in zip(full, end))
    log(f"  {FINISHED_JOBS_KEPT}→{FINISHED_JOBS_KEPT * MEMORY_BOUNDS} warm jobs: "
        f"VmHWM {full[0]}→{end[0]} KB, VmRSS {full[1]}→{end[1]} KB "
        f"({hwm:+.2f} / {rss:+.2f} KB per job)")
    if max(hwm, rss) > RSS_PER_JOB_KB:
        raise RuntimeError(
            f"the daemon's RSS grows {max(hwm, rss):.2f} KB per warm job past a "
            f"full job table (bound: {RSS_PER_JOB_KB} KB)"
        )

    try:
        client.status(first.job_id)
    except UnknownJob as exc:
        log(f"  the first job is gone: {exc}")
    else:
        raise RuntimeError(f"{first.job_id} is still in the table after "
                           f"{FINISHED_JOBS_KEPT * MEMORY_BOUNDS} newer jobs")

    # What ServiceManager holds per job: the deflated fetch body.
    kept = [record.job_id for record in client.jobs() if record.status.value == "succeeded"]
    largest = 0
    for job_id in kept:
        files = client.fetch(job_id)
        doc = {"schema_version": BUNDLE_SCHEMA_VERSION, "job_id": job_id, "files": files}
        largest = max(largest, len(zlib.compress(json_body(doc), 1)))
    held = client.health()["held_bytes"]
    log(f"  held_bytes {held} for {len(kept)} kept job(s), largest document {largest} B")
    if held > FINISHED_JOBS_KEPT * largest:
        raise RuntimeError(
            f"held_bytes {held} exceeds {FINISHED_JOBS_KEPT} × the largest "
            f"held document ({largest} B)"
        )


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="service-smoke")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-phase timeout in seconds")
    args = parser.parse_args()

    work = Path(args.workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    cache = work / "cache"
    direct_out = work / "direct"

    log("phase 1: direct local reference bundle")
    check(
        repro(["run", *SUITE, "--workers", "2", "--out", str(direct_out)],
              timeout=args.timeout),
        "direct run",
    )

    log("phase 2: daemon #1 — cold cache")
    daemon, address = start_daemon(cache, work / "daemon1.log")
    try:
        summary1 = submit_and_fetch(address, work / "bundle1", args.timeout)
        log(f"  cold run: {summary1.get('disk_cache_hits', 0)} cache hit(s), "
            f"{summary1.get('disk_cache_misses', 0)} miss(es)")
    finally:
        log("phase 3: SIGKILL the daemon")
        daemon.kill()
        daemon.wait(timeout=60)

    log("phase 4: daemon #2 — same cache directory, after the kill")
    daemon, address = start_daemon(cache, work / "daemon2.log")
    try:
        summary = submit_and_fetch(
            address, work / "bundle2", args.timeout, expect_chunks=False
        )
        expect_only_hits(summary, "warm run")
        log("phase 5: daemon #2 — the identical suite again (a held plan)")
        summary = submit_and_fetch(
            address, work / "bundle3", args.timeout, expect_chunks=False
        )
        expect_only_hits(summary, "repeated run")
        log("phase 6: daemon #2 — memory held per finished job")
        memory_phase(daemon.pid, address, args.timeout)
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()

    log("phase 7: byte-diff all fetched bundles against the direct bundle")
    names = sorted(p.name for p in direct_out.glob("*.json"))
    if not names:
        raise RuntimeError("direct run wrote no bundle files")
    mismatched = []
    for name in names:
        reference = (direct_out / name).read_bytes()
        for fetched_dir in (work / "bundle1", work / "bundle2", work / "bundle3"):
            if (fetched_dir / name).read_bytes() != reference:
                mismatched.append(f"{fetched_dir.name}/{name}")
    if mismatched:
        log(f"FAIL: fetched bundles differ from direct run: {mismatched}")
        return 1
    log(f"OK: {len(names)} bundle file(s) byte-identical across daemon "
        "restart, a repeated request and direct run; warm starts served "
        "entirely from disk cache")
    return 0


if __name__ == "__main__":
    sys.exit(main())
