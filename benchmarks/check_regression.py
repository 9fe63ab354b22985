"""Benchmark regression gate: diff a smoke run against the committed
baseline.

Absolute wall-clock is not comparable between the CI runner and the
machine that produced the committed ``BENCH_parallel.json``, and
neither are parallel-speedup ratios whose two legs run at *different*
parallelism (``speedup_4w_vs_serial`` on a multi-core runner trivially
clears a single-CPU baseline's floor, and flakes under noisy-neighbor
load). The tracked set is therefore each entry's ``stable_ratios``
list: ratios of two legs measured back to back in the same process at
**identical parallelism** (artifact slimming, batch scan engine, suite
dedup, distributed-vs-local protocol overhead). Those measure a code
path, not the hardware, so a regression (extra pickling, a serialized
lock, a broken cache) drags them down on every machine.
``bench_parallel.py`` emits them identically in ``--quick`` and full
runs. Entries predating the marker fall back to every
``speedup_*_vs_*`` key.

The gate fails (exit 1) when any tracked ratio in the candidate falls
more than ``--tolerance`` (default 0.35, i.e. a >35% slowdown) below
the committed value, or when a tracked key disappears from the
candidate (a renamed key must be renamed in the baseline too, not
silently dropped from the gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py --quick \
        --output BENCH_parallel_smoke.json
    python benchmarks/check_regression.py BENCH_parallel_smoke.json \
        --baseline BENCH_parallel.json --tolerance 0.35
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict


def tracked_ratios(report: dict) -> Dict[str, float]:
    """The machine-comparable keys of one benchmark report:
    ``<benchmark>.<ratio>`` → value for every ratio the entry declares
    in its ``stable_ratios`` list (both legs at identical parallelism).
    Entries without the marker fall back to every ``speedup_*_vs_*``
    key, so old reports stay checkable. A ``stable_ratios`` name whose
    value is missing or non-numeric raises ``ValueError`` — a renamed
    leg must rename the marker too, not silently un-gate the ratio."""
    out: Dict[str, float] = {}
    for name, entry in report.get("benchmarks", {}).items():
        if not isinstance(entry, dict):
            continue
        stable = entry.get("stable_ratios")
        if isinstance(stable, list):
            broken = [
                key
                for key in stable
                if not isinstance(entry.get(key), (int, float))
            ]
            if broken:
                raise ValueError(
                    f"benchmark entry {name!r} declares stable_ratios "
                    f"{broken} that are missing or non-numeric"
                )
            keys = stable
        else:
            keys = [
                key
                for key in entry
                if key.startswith("speedup_") and "_vs_" in key
            ]
        for key in keys:
            out[f"{name}.{key}"] = float(entry[key])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("candidate", help="fresh benchmark JSON (CI smoke run)")
    parser.add_argument("--baseline", default="BENCH_parallel.json",
                        help="committed reference JSON")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed fractional slowdown per tracked "
                             "ratio (0.35 = fail below 65%% of baseline)")
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        parser.error("--tolerance must be in (0, 1)")

    try:
        candidate = tracked_ratios(json.loads(Path(args.candidate).read_text()))
        baseline = tracked_ratios(json.loads(Path(args.baseline).read_text()))
    except (OSError, ValueError) as exc:
        # unreadable file, undecodable JSON, or a stable_ratios name
        # with no matching value — all diagnosed, none a traceback
        print(f"error: {exc}")
        return 2
    if not baseline:
        print(f"error: no tracked speedup ratios in {args.baseline}")
        return 2

    failures = []
    width = max(len(key) for key in baseline)
    print(f"{'tracked ratio':<{width}}  baseline  candidate  floor   status")
    for key in sorted(baseline):
        base = baseline[key]
        floor = base * (1 - args.tolerance)
        if key not in candidate:
            failures.append(f"{key}: missing from candidate")
            print(f"{key:<{width}}  {base:8.2f}  {'-':>9}  {floor:5.2f}   MISSING")
            continue
        got = candidate[key]
        ok = got >= floor
        if not ok:
            failures.append(
                f"{key}: {got:.2f} < {floor:.2f} "
                f"(baseline {base:.2f}, tolerance {args.tolerance:.0%})"
            )
        print(
            f"{key:<{width}}  {base:8.2f}  {got:9.2f}  {floor:5.2f}   "
            f"{'ok' if ok else 'REGRESSION'}"
        )
    new_keys = sorted(set(candidate) - set(baseline))
    if new_keys:
        print(f"untracked new ratios (add to baseline): {', '.join(new_keys)}")
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {len(baseline)} tracked ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
