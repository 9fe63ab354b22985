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
6. Send the restarted daemon 200 warm jobs of the benchmark's
   ``service_mix`` request and read its memory before and after: its
   ``VmHWM`` and ``VmRSS`` from ``/proc/<pid>/status`` and
   ``held_bytes`` from ``/v1/health``. A finished job holds one
   compressed fetch document, so the phase fails above 20 KB of RSS or
   8 KB of ``held_bytes`` per job.
7. Byte-diff all three fetched bundles against the direct local bundle.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SUITE = ["all", "--smoke"]

#: The memory phase: the ``service_mix`` benchmark request, its job
#: count, and what each job may add to the daemon.
MEMORY_EXPERIMENTS = ("fig5", "fig6", "fig7", "fig12", "fig13")
MEMORY_JOBS = 200
RSS_PER_JOB_KB = 20.0
HELD_PER_JOB_KB = 8.0


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
    """Warm jobs through the daemon: what each one leaves behind."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.api import RunRequest, ServiceClient

    client = ServiceClient(address)
    request = RunRequest(MEMORY_EXPERIMENTS, smoke=True)
    client.submit(request).result(timeout)  # its cells and plan are held from here

    def sample():
        return status_kb(pid, "VmHWM"), status_kb(pid, "VmRSS"), client.health()["held_bytes"]

    before = sample()
    for _ in range(MEMORY_JOBS):
        client.submit(request).result(timeout)
    after = sample()
    hwm, rss, held = ((b - a) / MEMORY_JOBS for a, b in zip(before, after))
    log(f"  {MEMORY_JOBS} warm jobs: VmHWM +{hwm:.1f} KB, VmRSS +{rss:.1f} KB, "
        f"held_bytes +{held / 1024:.1f} KB per job")
    if max(hwm, rss) > RSS_PER_JOB_KB or held / 1024 > HELD_PER_JOB_KB:
        raise RuntimeError(
            f"the daemon grows {max(hwm, rss):.1f} KB of RSS and holds "
            f"{held / 1024:.1f} KB per finished job (bounds: {RSS_PER_JOB_KB} KB "
            f"and {HELD_PER_JOB_KB} KB)"
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
