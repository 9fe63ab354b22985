#!/usr/bin/env python3
"""CI stream smoke: a distributed 100k-target streaming scan must
survive a coordinator SIGKILL and, started again on its cache, finish
with a summary byte-identical to an uninterrupted local run.

The drill (see the streaming section of PERFORMANCE.md):

1. Run the reference scan in-process (``repro scan --backend local``).
2. Start a two-worker fleet with a ``--retry`` window so it outlives
   the coordinator.
3. Run the same scan on ``--backend distributed`` with ``--cache-dir``,
   SIGKILL the coordinator as soon as the first shard is stored there,
   then relaunch the identical command; it must be served at least
   one stored shard ("disk-cached").
4. Byte-diff the restarted summary JSON against the local reference —
   the sketch merge is exactly order-independent, so "equal" here
   means equal bytes, not equal-within-tolerance.
5. Scan 50k and then 500k targets, each in a fresh coordinator
   process, and fail when the first's peak RSS over the second's is
   below 0.65: coordinator memory must not grow with the target count.
"""

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCAN = [
    "scan",
    "--source", "synthetic",
    "--targets", "100000",
    "--shard-size", "2000",
    "--vantage", "Hamburg",
    "--days", "1",
    "--seed", "7",
]

#: 1x target count of the memory phase; its 10x scan (500k targets)
#: keeps the phase near 5 s on two vCPUs.
RSS_TARGETS = 50_000
#: Coordinator peak RSS at 1x over that at 10x below this fails.
RSS_FLATNESS_FLOOR = 0.65


def log(message: str) -> None:
    print(f"stream-smoke: {message}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_AUTH_KEY", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro(args, log_path: Path) -> subprocess.Popen:
    handle = open(log_path, "ab")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=child_env(),
        cwd=REPO_ROOT,
        stdout=handle,
        stderr=subprocess.STDOUT,
    )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ok(proc: subprocess.Popen, what: str, timeout: float) -> None:
    if proc.wait(timeout=timeout) != 0:
        raise RuntimeError(f"{what} exited with {proc.returncode}")


def coordinator_rss_kb(targets: int, timeout: float) -> int:
    """Peak RSS (``ru_maxrss``, KiB on Linux) of a fresh coordinator
    process scanning ``targets`` synthetic targets on a 2-process pool.

    The coordinator is where a materialized target list or an unbounded
    in-flight window would show up; pool workers hold one shard each by
    construction.
    """
    script = (
        "import resource\n"
        "from repro.runtime.backend import LocalBackend\n"
        "from repro.wild.stream import ScanRequest, StreamCoordinator\n"
        "request = ScanRequest(\n"
        f"    source={{'kind': 'synthetic', 'count': {targets}, 'seed': 11}},\n"
        "    shard_size=5000, vantage_names=('Hamburg',), days=1,\n"
        ").validated()\n"
        "with LocalBackend(2) as backend:\n"
        "    report = StreamCoordinator(backend, request).run()\n"
        "print(report.sketch.targets, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(), cwd=REPO_ROOT, timeout=timeout,
        check=True, capture_output=True, text=True,
    )
    scanned, rss_kb = map(int, out.stdout.split())
    if scanned != targets:
        raise RuntimeError(f"the RSS scan covered {scanned} targets, not {targets}")
    return rss_kb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="stream-smoke",
                        help="scratch directory for summaries, the cache, logs")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall per-phase timeout in seconds")
    args = parser.parse_args()

    work = Path(args.workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    reference = work / "reference.json"
    restarted = work / "restarted.json"
    cache = work / "cache"
    port = free_port()

    log("phase 1: reference scan on --backend local")
    wait_ok(
        repro([*SCAN, "--backend", "local", "--workers", "2",
               "--out", str(reference)], work / "local.log"),
        "local reference scan", args.timeout,
    )

    log("phase 2: two workers with a --retry window")
    workers = [
        repro(["worker", "--connect", f"127.0.0.1:{port}", "--retry", "120"],
              work / f"worker{i}.log")
        for i in range(2)
    ]

    coordinator_cmd = [
        *SCAN, "--backend", "distributed", "--listen", str(port),
        "--min-workers", "2", "--cache-dir", str(cache), "--out", str(restarted),
    ]
    log("phase 3: coordinator scan, SIGKILLed once the first shard is stored")
    victim = repro(coordinator_cmd, work / "coordinator-1.log")
    deadline = time.monotonic() + args.timeout
    while not list(cache.glob("objects/*/*.blob")) and victim.poll() is None:
        if time.monotonic() > deadline:
            victim.kill()
            raise RuntimeError("no shard was stored in time")
        time.sleep(0.01)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        log(f"  coordinator killed mid-scan "
            f"({len(list(cache.glob('objects/*/*.blob')))} shard(s) stored)")
    else:
        # The scan outran the kill window; the restart below is then
        # served from the cache, which must still be byte-identical.
        log("  coordinator finished before the kill window; restarting anyway")

    log("phase 4: relaunch the identical command")
    wait_ok(repro(coordinator_cmd, work / "coordinator-2.log"),
            "restarted coordinator scan", args.timeout)

    log("phase 5: byte-diff restarted summary against the local reference")
    for proc in workers:
        proc.terminate()
    for proc in workers:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
    if not reference.exists() or not restarted.exists():
        log("FAIL: a scan wrote no summary file")
        failure_dump(work)
        return 1
    if reference.read_bytes() != restarted.read_bytes():
        log("FAIL: restarted distributed summary differs from the local reference")
        failure_dump(work)
        return 1
    restarted_log = (work / "coordinator-2.log").read_text(errors="replace")
    cached = re.search(r"(\d+) disk-cached", restarted_log)
    if cached is None or int(cached.group(1)) == 0:
        log("FAIL: the restarted run was served no stored shard")
        failure_dump(work)
        return 1
    log(f"OK: 100k-target scan survived a coordinator SIGKILL; restarted "
        f"with {cached.group(1)} shard(s) disk-cached, summary byte-identical "
        "to the uninterrupted local run")

    log(f"phase 6: coordinator peak RSS at {RSS_TARGETS} vs {10 * RSS_TARGETS} targets")
    one = coordinator_rss_kb(RSS_TARGETS, args.timeout)
    ten = coordinator_rss_kb(10 * RSS_TARGETS, args.timeout)
    flatness = one / ten
    log(f"  {one} KiB vs {ten} KiB: rss_1x / rss_10x = {flatness:.2f} "
        f"(floor {RSS_FLATNESS_FLOOR})")
    if flatness < RSS_FLATNESS_FLOOR:
        log("FAIL: coordinator memory grows with the target count")
        return 1
    log("OK: coordinator memory is flat in the target count")
    return 0


def failure_dump(work: Path) -> None:
    for logfile in sorted(work.glob("*.log")):
        print(f"\n===== {logfile.name} =====", flush=True)
        print(logfile.read_text(errors="replace"), flush=True)


if __name__ == "__main__":
    sys.exit(main())
