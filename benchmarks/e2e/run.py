#!/usr/bin/env python3
"""The repository's benchmark of record (see README.md beside this file).

    python3 benchmarks/e2e/run.py                      every workload, untraced
    python3 benchmarks/e2e/run.py --trace 1            every workload, per-layer pass
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --runs 10 --save A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --list

The last line of standard output of a run is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (of the last
workload run, which with ``--workload`` is the only one). The exit
code is 0 only when every op of every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import compare
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Scratch space inside the checkout, one directory per invocation so
#: that two runs at once do not clear each other's files.
WORK_ROOT = os.path.join(HERE, ".work", f"run-{os.getpid()}")
#: The contract allows a run 180 s; a child that is still going after
#: this long is stopped so the run fails inside that limit.
CHILD_TIMEOUT_S = 150


def child(args: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``measure.py`` in a fresh interpreter and parse its line.

    The child leads its own process group, so that if it has to be
    stopped its fleet workers and pool processes stop with it."""
    args = dict(args, root=ROOT, work_root=WORK_ROOT)
    spawned_at = time.monotonic()  # the child reads the same system-wide clock
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), json.dumps(args)],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"measuring process for {args['workload']} ran past its time limit")
    if process.returncode != 0:
        raise SystemExit(
            f"measuring process for {args['workload']} exited {process.returncode}"
        )
    doc = json.loads(stdout.strip().splitlines()[-1])
    doc["spawned_at"] = spawned_at
    return doc


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str, out: str):
    """One run in the contract's shape, plus what a reader wants to see
    beside it (rounds, spread between rounds, failure messages)."""
    base = {"workload": name, "seed": seed, "seconds": seconds, "scale": scale, "out": out}
    if trace:
        doc = child(dict(base, role="trace"))
        declared = spec.PER_LAYER
    else:
        samples = [child(dict(base, role="setup")) for _ in range(spec.SETUP_SAMPLES[scale] - 1)]
        doc = child(dict(base, role="measure"))
        samples.append(doc)
        doc["metrics"]["setup_s"] = statistics.median(
            s["ready_at"] - s["spawned_at"] for s in samples
        )
        declared = spec.END_TO_END
    missing = [m["name"] for m in declared if m["name"] not in doc["metrics"]]
    if missing or len(doc["metrics"]) != len(declared):
        raise SystemExit(f"{name}: metrics do not match the declared ones; missing {missing}")
    return {
        "workload": name,
        "seed": seed,
        "correct": not doc["failures"],
        "attempted": doc["attempted"],
        "failed": len(doc["failures"]),
        "metrics": {
            m["name"]: {"value": doc["metrics"][m["name"]], "unit": m["unit"]} for m in declared
        },
        "failures": doc["failures"][:20],
        "rounds": doc.get("rounds"),
        "ops": doc.get("ops"),
        "round_spread": doc.get("round_spread", {}),
        "trace_file": doc.get("trace"),
    }


def show(result: Dict[str, Any], trace: int) -> None:
    declared = {m["name"]: m for m in (spec.PER_LAYER if trace else spec.END_TO_END)}
    print(
        f"== {result['workload']} seed={result['seed']}: {result['attempted']} ops, "
        f"{result['failed']} failed"
        + ("" if trace else f", {result['rounds']} rounds, {result['ops']} timed ops")
    )
    for name, metric in result["metrics"].items():
        line = f"  {name:<46} {metric['value']:>14.4f} {metric['unit']:<6}"
        line += f" {declared[name]['better']:<6}"
        if not trace:
            line += f" bound {declared[name]['bound']:.0%}"
            if name in result["round_spread"]:
                line += f"  (quartile spread of its samples {result['round_spread'][name]:.1%})"
        print(line)
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if result["trace_file"]:
        print(f"  spans and counts: {os.path.relpath(result['trace_file'])}")


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_average_1min": os.getloadavg()[0],
        "git_commit": commit or None,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "runs": args.runs,
        "trace": args.trace,
    }


def listing() -> Dict[str, Any]:
    doc = spec.contract_view()
    doc["workload_detail"] = spec.WORKLOADS
    doc["end_to_end_detail"] = spec.END_TO_END
    doc["per_layer_detail"] = spec.PER_LAYER
    doc["scales"] = spec.SCALES
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names(), help="default: all five")
    parser.add_argument("--seed", type=int, default=0, help="seeds every generated input")
    parser.add_argument("--seconds", type=float, help="measured time per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(spec.SCALES), default="full")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..")
    parser.add_argument("--out", default=os.path.join(HERE, "out"), help="where trace files go")
    parser.add_argument("--save", metavar="FILE", help="write every run, with the environment")
    parser.add_argument("--list", action="store_true", help="print workloads and metrics as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.list:
        print(json.dumps(listing(), indent=1))
        return 0
    if args.compare:
        return compare.main(*args.compare)
    if args.seconds is None:
        args.seconds = 15.0 if args.scale == "full" else 0.5
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    env = environment(args)
    cores = env["cpu_count"] or 1
    if args.save and args.scale == "full" and cores < 2:
        print("refusing to record a full-scale baseline on fewer than 2 cores", file=sys.stderr)
        return 2
    if env["load_average_1min"] > 0.5 * cores:
        print(f"warning: load average {env['load_average_1min']:.2f} on {cores} cores; "
              "timings will be noisy", file=sys.stderr)
    names = [args.workload] if args.workload else spec.workload_names()
    results = []
    try:
        for name in names:
            for run in range(args.runs):
                result = run_workload(
                    name, args.seed + run, args.seconds, args.trace, args.scale,
                    os.path.abspath(args.out),
                )
                show(result, args.trace)
                results.append(result)
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK_ROOT))
        except OSError:
            pass  # another invocation is still using it
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"env": env, "runs": results}, fh, indent=1)
            fh.write("\n")
    last = results[-1]
    print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
