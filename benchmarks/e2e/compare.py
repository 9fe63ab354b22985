"""``run.py --compare A.json B.json``: one row per (workload,
end-to-end metric), with a verdict against the metric's bound."""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

import spec


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``; a single run has
    no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_by_pair(doc: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``ok``, ``regressed`` or ``unresolved``, and by what share of
    A's median B's median is worse (negative: better).

    ``unresolved`` is the choosing-metrics rule: the run-to-run spread
    is wider than the bound and the two sets of runs overlap, so the
    medians cannot tell a regression from noise."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_mid, a_q3 = quartiles(a)
    b_q1, b_mid, b_q3 = quartiles(b)
    worse_by = sign * (b_mid - a_mid) / a_mid
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_mid
    apart = max(a) < min(b) or max(b) < min(a)
    if spread > bound and not apart:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        doc_a = json.load(fh)
    with open(path_b) as fh:
        doc_b = json.load(fh)
    a_values, b_values = values_by_pair(doc_a), values_by_pair(doc_b)
    for label, doc in (("A", doc_a), ("B", doc_b)):
        env = doc["env"]
        print(f"{label}: commit {env['git_commit']}, {env['cpu_count']} cores, "
              f"python {env['python']}, load {env['load_average_1min']:.2f}, "
              f"{env['runs']} runs of {env['seconds']} s from seed {env['seed']}")
    header = ("workload", "metric", "unit", "A median", "B median", "worse by", "bound", "verdict")
    print("{:<16} {:<18} {:<5} {:>12} {:>12} {:>9} {:>6}  {}".format(*header))
    regressed = 0
    for workload in spec.workload_names():
        for metric in spec.END_TO_END:
            pair = (workload, metric["name"])
            if pair not in a_values or pair not in b_values:
                continue
            word, worse_by = verdict(
                a_values[pair], b_values[pair], metric["better"], metric["bound"]
            )
            regressed += word == "regressed"
            print("{:<16} {:<18} {:<5} {:>12.4f} {:>12.4f} {:>+9.1%} {:>6.0%}  {}".format(
                workload, metric["name"], metric["unit"],
                statistics.median(a_values[pair]), statistics.median(b_values[pair]),
                worse_by, metric["bound"], word,
            ))
    return 1 if regressed else 0
