"""Self-test of the benchmark harness (collected by the tier-1 suite).

Runs the real harness at ``--scale tiny`` and checks the shape of what
it prints against the contract ``BENCHMARK.json`` is written to. No
assertion here depends on how fast anything ran.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
REQUIRED_EVERYWHERE = {"setup_s", "work_per_s", "op_latency_ms_p50", "cpu_s", "peak_rss_mb"}


def harness(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_and_list_name_the_same_things():
    listed = json.loads(harness("--list").stdout)
    declared = contract()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    for key in ("workloads", "end_to_end", "per_layer"):
        assert declared[key] == listed[key], f"BENCHMARK.json and --list differ on {key}"
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    (setup,) = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_tiny_pass_reports_every_end_to_end_metric_on_every_workload(tmp_path):
    saved = tmp_path / "tiny.json"
    done = harness("--scale", "tiny", "--seed", "3", "--save", str(saved))
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    doc = json.loads(saved.read_text())
    assert {"cpu_count", "python", "platform", "load_average_1min", "git_commit",
            "seed", "scale"} <= set(doc["env"])
    declared = {m["name"]: m for m in contract()["end_to_end"]}
    assert REQUIRED_EVERYWHERE <= set(declared)
    assert [run["workload"] for run in doc["runs"]] == [
        w["name"] for w in contract()["workloads"]
    ]
    for run in doc["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run
        assert set(run["metrics"]) == set(declared)
        for name, metric in run["metrics"].items():
            assert metric["unit"] == declared[name]["unit"]
            assert metric["value"] > 0
    # A file compared with itself has no regression and exits 0.
    same = harness("--compare", str(saved), str(saved))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout and "unresolved" not in same.stdout


def test_tiny_traced_pass_reports_every_layer_metric_and_nesting_spans(tmp_path):
    done = harness(
        "--scale", "tiny", "--workload", "trace_fleet", "--trace", "1", "--out", str(tmp_path)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in contract()["per_layer"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    assert last["correct"] and last["failed"] == 0
    spec = importlib.util.spec_from_file_location("e2e_tracing", HERE / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    trace = json.loads((tmp_path / "trace-trace_fleet.json").read_text())
    assert tracing.check_nesting(trace) == []
    seen = {(span["workload"], span["name"]) for span in trace["spans"]}
    for phase in ("round", "run", "plan", "execute", "aggregate", "write"):
        assert ("trace_fleet", phase) in seen
    assert any(name.startswith("chunk@") for workload, name in seen if workload == "trace_fleet")


def run_file(tmp_path, name, values):
    runs = [
        {"workload": "handshake_sweep",
         "metrics": {"work_per_s": {"value": value, "unit": "1/s"}}}
        for value in values
    ]
    env = {"git_commit": None, "cpu_count": 2, "python": "3", "load_average_1min": 0.0,
           "runs": len(values), "seconds": 1, "seed": 0}
    path = tmp_path / name
    path.write_text(json.dumps({"env": env, "runs": runs}))
    return str(path)


def test_compare_tells_ok_from_regressed_from_unresolved(tmp_path):
    steady = run_file(tmp_path, "a.json", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    slower = run_file(tmp_path, "b.json", [60, 61, 59, 60, 62, 58, 60, 61, 59, 60])
    noisy = run_file(tmp_path, "c.json", [60, 140, 75, 120, 80, 135, 65, 110, 70, 130])
    ok = harness("--compare", steady, steady)
    assert ok.returncode == 0 and " ok" in ok.stdout
    regressed = harness("--compare", steady, slower)
    assert regressed.returncode != 0 and "regressed" in regressed.stdout
    unresolved = harness("--compare", steady, noisy)
    assert unresolved.returncode == 0 and "unresolved" in unresolved.stdout


def test_exits_non_zero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "out"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "handshake_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
