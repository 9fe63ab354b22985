"""The measuring process: one workload, one fresh interpreter.

``run.py`` starts this file once per set-up sample, per measured run
and per traced pass, so process-wide memos start empty, ``ru_maxrss``
is the workload's own, and set-up time includes the interpreter and
the imports. The single argument is a JSON object; the single line on
standard output is a JSON object too.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List

from compare import quartiles


def tree_cpu_s() -> float:
    """User+sys seconds of this process, of children it has reaped,
    and of every live descendant (fleet workers, pool processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    parent_of: Dict[int, int] = {}
    ticks_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # The command name may hold spaces; fields resume after ")".
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        parent_of[int(entry)] = int(fields[1])
        # utime, stime, and cutime, cstime of the children it reaped
        ticks_of[int(entry)] = sum(int(field) for field in fields[11:15])
    me = os.getpid()
    for pid in parent_of:
        ancestor = parent_of.get(pid)
        while ancestor not in (None, 0, me):
            ancestor = parent_of.get(ancestor)
        if ancestor == me:
            total += ticks_of[pid] / tick
    return total


@contextlib.contextmanager
def work_directory(args: Dict[str, Any], name: str) -> Iterator[None]:
    """A scratch directory inside the checkout that the process sits in
    (relative socket and cache paths) and that holds every temporary
    file the program makes."""
    os.makedirs(args["work_root"], exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{name}-", dir=args["work_root"])
    before = os.getcwd(), tempfile.tempdir, os.environ.get("TMPDIR")
    os.chdir(path)
    tempfile.tempdir = path
    os.environ["TMPDIR"] = path
    try:
        yield
    finally:
        os.chdir(before[0])
        tempfile.tempdir = before[1]
        if before[2] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = before[2]
        shutil.rmtree(path, ignore_errors=True)


def quartile_spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, middle, q3 = quartiles(values)
    return (q3 - q1) / middle


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, seconds: float, fewest: int, trace=None) -> List[Any]:
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < fewest or time.perf_counter() < deadline:
        cpu = tree_cpu_s()
        result = workload.round(trace)
        result.cpu_s = tree_cpu_s() - cpu
        result.rss_mb = peak_rss_mb()
        rounds.append(result)
    return rounds


def measured(args: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, and unless this is a set-up sample, check the golden
    bundles and measure rounds for ``seconds``."""
    import spec
    import workloads

    name = args["workload"]
    consts = spec.SCALES[args["scale"]][name]
    with work_directory(args, name):
        workload = workloads.WORKLOAD_CLASSES[name](consts, args["seed"], args["root"])
        try:
            workload.start()
            warm_up = workload.round()
            doc: Dict[str, Any] = {"ready_at": time.monotonic()}
            if args["role"] == "setup":
                return doc
            golden_files, failures = workload.check_golden()
            fewest = spec.MIN_ROUNDS[args["scale"]]
            rounds = timed_rounds(workload, args["seconds"], fewest)
        finally:
            workload.stop()
    attempted = golden_files
    for result in [warm_up] + rounds:
        attempted += result.attempted + 1  # its own ops, and its digest
        failures.extend(result.failures)
        if result.digest != warm_up.digest:
            failures.append("a round's output digest differs from the warm-up round's")
    throughput = [r.work / r.wall_s for r in rounds]
    latencies = [ms for r in rounds for ms in r.op_ms]
    doc.update(
        attempted=attempted,
        failures=failures,
        rounds=len(rounds),
        ops=len(latencies),
        metrics={
            "work_per_s": statistics.median(throughput),
            "op_latency_ms_p50": statistics.median(latencies),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            # Read after a fixed number of rounds: a faster run fits more
            # rounds into its seconds and must not read as a fatter one.
            "peak_rss_mb": rounds[fewest - 1].rss_mb,
        },
        round_spread={
            "work_per_s": quartile_spread(throughput),
            "op_latency_ms_p50": quartile_spread(latencies),
            "cpu_s": quartile_spread([r.cpu_s for r in rounds]),
        },
    )
    return doc


def traced(args: Dict[str, Any]) -> Dict[str, Any]:
    """The per-layer pass: every layer probe, the workloads that own a
    layer metric at probe scale, and the named workload at full scale,
    untraced then traced, which also gives the tracing overhead."""
    import probes
    import spec
    import workloads
    from tracing import Trace

    trace = Trace()
    metrics: Dict[str, float] = {}
    attempted = 0
    failures: List[str] = []
    with work_directory(args, "probes"):
        metrics.update(probes.run_all(trace, args["seed"]))
    for name in spec.workload_names():
        selected = name == args["workload"]
        cls = workloads.WORKLOAD_CLASSES[name]
        if not selected and cls.layer_metrics is workloads.Workload.layer_metrics:
            continue  # owns no layer metric
        scale = args["scale"] if selected else "tiny"
        with work_directory(args, name):
            workload = cls(spec.SCALES[scale][name], args["seed"], args["root"])
            try:
                workload.start()
                rounds = [workload.round()]
                if selected:
                    # Untraced and traced rounds take turns, so the box's
                    # drift falls on both alike and the overhead is theirs.
                    plain: List[Any] = []
                    seen: List[Any] = []
                    deadline = time.perf_counter() + args["seconds"] * 0.6
                    while len(seen) < spec.MIN_ROUNDS[scale] or time.perf_counter() < deadline:
                        plain += timed_rounds(workload, 0.0, 1)
                        seen += timed_rounds(workload, 0.0, 1, trace)
                    rounds += plain + seen
                    for phase in ("plan", "execute", "aggregate", "write"):
                        metrics[f"span.{phase}_s"] = statistics.median(
                            trace.durations(phase, name)
                        )
                    untraced = statistics.median(r.work / r.wall_s for r in plain)
                    observed = statistics.median(r.work / r.wall_s for r in seen)
                    metrics["trace.overhead_pct"] = (untraced / observed - 1.0) * 100.0
                else:
                    rounds.append(workload.round(trace))
                metrics.update(workload.layer_metrics(trace))
            finally:
                workload.stop()
        for result in rounds:
            attempted += result.attempted
            failures.extend(result.failures)
    os.makedirs(args["out"], exist_ok=True)
    path = os.path.join(args["out"], f"trace-{args['workload']}.json")
    trace.write(
        path,
        {"workload": args["workload"], "seed": args["seed"], "scale": args["scale"]},
    )
    return {"attempted": attempted, "failures": failures, "metrics": metrics, "trace": path}


def main() -> None:
    args = json.loads(sys.argv[1])
    src = os.path.join(args["root"], "src")
    sys.path.insert(0, src)
    # Fleet workers and the CLI probe are processes of their own.
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    doc = traced(args) if args["role"] == "trace" else measured(args)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
