#!/usr/bin/env python3
"""CI chaos smoke: a distributed suite run under seeded fault injection
must still produce a bundle byte-identical to the local backend.

The drill (see RESILIENCE.md):

1. Run the reference suite on ``--backend local``.
2. Start three workers with a randomized-but-seeded fault mix — one
   that hard-kills itself mid-suite (``--kill-after``), one with
   delayed chunks and dropped heartbeats, one clean — all with a
   ``--retry`` window so survivors reconnect after the coordinator
   comes back. The faulted two run ``scripts/fault_worker.py``.
3. Run the same suite on ``--backend distributed`` with ``--cache-dir``,
   SIGKILL the coordinator as soon as the first cell is stored there,
   then relaunch the identical command: it is served what was stored
   and executes the rest.
4. Byte-diff the two bundles, and fail unless a faulted worker's log
   says ``fault: <kind> fired``: a drill whose faults never fired
   tested nothing.

Every random choice derives from one seed, printed up front and again
on failure: ``python scripts/chaos_smoke.py --seed N`` replays a CI
failure exactly.
"""

import argparse
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SUITE = ["run", "all", "--smoke"]
#: Runs ``repro worker`` with injected faults (see its docstring).
FAULT_WORKER = (str(REPO_ROOT / "scripts" / "fault_worker.py"),)


def log(message: str) -> None:
    print(f"chaos-smoke: {message}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_AUTH_KEY", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro(args, log_path: Path, entry=("-m", "repro")) -> subprocess.Popen:
    handle = open(log_path, "ab")
    return subprocess.Popen(
        [sys.executable, *entry, *args],
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


def fault_flags(seed: int) -> list:
    """``scripts/fault_worker.py`` flags of three workers: one killer,
    one slow-and-silent, one clean — parameters randomized by the
    seed."""
    rng = random.Random(seed)
    killer = ["--kill-after", str(rng.randint(0, 2)),
              "--delay", f"{round(rng.uniform(0.0, 0.05), 3):g}"]
    # Beats every 0.1 s, so that its heartbeats stop within a smoke run.
    laggard = ["--delay", f"{round(rng.uniform(0.01, 0.1), 3):g}",
               "--drop-heartbeats", str(rng.randint(2, 8)), "--heartbeat", "0.1"]
    return [killer, laggard, []]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="chaos seed (default: random, always printed)")
    parser.add_argument("--workdir", default="chaos-smoke",
                        help="scratch directory for bundles, the cache, logs")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall per-phase timeout in seconds")
    args = parser.parse_args()

    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2**31)
    log(f"seed={seed} (replay with: python scripts/chaos_smoke.py --seed {seed})")

    work = Path(args.workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    local_out = work / "local"
    dist_out = work / "distributed"
    cache = work / "cache"
    port = free_port()

    log("phase 1: reference bundle on --backend local")
    wait_ok(
        repro([*SUITE, "--backend", "local", "--out", str(local_out)],
              work / "local.log"),
        "local reference run", args.timeout,
    )

    log("phase 2: three workers, two of them faulted by the seed")
    workers = []
    faulted_logs = []
    for i, flags in enumerate(fault_flags(seed)):
        worker_log = work / f"worker{i}.log"
        dial = ["--connect", f"127.0.0.1:{port}", "--retry", "120"]
        if flags:
            faulted_logs.append(worker_log)
            workers.append(repro([*flags, *dial], worker_log, FAULT_WORKER))
        else:
            workers.append(repro(["worker", *dial], worker_log))
        log(f"  worker{i}: faults {' '.join(flags) or 'none'}")

    coordinator_cmd = [
        *SUITE, "--backend", "distributed", "--listen", str(port),
        "--min-workers", "2", "--cache-dir", str(cache), "--out", str(dist_out),
    ]
    log("phase 3: coordinator run, SIGKILLed once the first cell is stored")
    victim = repro(coordinator_cmd, work / "coordinator-1.log")
    deadline = time.monotonic() + args.timeout
    while not list(cache.glob("objects/*/*.blob")) and victim.poll() is None:
        if time.monotonic() > deadline:
            victim.kill()
            raise RuntimeError("no cell was stored in time")
        time.sleep(0.01)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        log(f"  coordinator killed mid-suite "
            f"({len(list(cache.glob('objects/*/*.blob')))} cell(s) stored)")
    else:
        # The suite outran the kill window; the restart below is then
        # served from the cache, which must still be byte-identical.
        log("  coordinator finished before the kill window; restarting anyway")

    log("phase 4: relaunch the identical command")
    wait_ok(repro(coordinator_cmd, work / "coordinator-2.log"),
            "restarted coordinator run", args.timeout)

    log("phase 5: byte-diff distributed+restarted bundle against local")
    mismatched = []
    names = sorted(p.name for p in local_out.glob("*.json"))
    for name in names:
        if (local_out / name).read_bytes() != (dist_out / name).read_bytes():
            mismatched.append(name)
    if not names:
        mismatched.append("<no bundle files written>")
    for proc in workers:
        proc.terminate()
    for proc in workers:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
    fired = [
        f"{path.stem}: {line}"
        for path in faulted_logs
        for line in path.read_text(errors="replace").splitlines()
        if line.startswith("fault: ")
    ]
    for line in fired:
        log(f"  {line}")
    if mismatched or not fired:
        reason = f"bundle mismatch in {mismatched}" if mismatched else "no fault fired"
        log(f"FAIL seed={seed}: {reason}")
        for logfile in sorted(work.glob("*.log")):
            print(f"\n===== {logfile.name} =====", flush=True)
            print(logfile.read_text(errors="replace"), flush=True)
        return 1
    log(f"OK seed={seed}: {len(names)} bundle file(s) byte-identical under chaos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
