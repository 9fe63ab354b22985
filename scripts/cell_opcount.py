#!/usr/bin/env python3
"""Count what one cell costs the interpreter: bytecodes, frames, garbage.

Runs every cell of the ``handshake_sweep`` selection (fig12 + fig13 at
one repetition, stats level) under ``sys.settrace`` with per-opcode
events on, and prints the mean per cell: bytecodes executed, Python
frames entered, datagrams and packets moved, objects a cell after the
first left to the cyclic collector (``gc`` is off, and collected once
per cell after its result is dropped), and the functions that were
entered most. Pure counts — they repeat exactly on any machine, so
PERFORMANCE.md quotes them beside the (noisy) ``benchmarks/e2e``
timings::

    python scripts/cell_opcount.py [--top 25] [--src PATH] [--shard]

``--shard`` counts one synthetic scan shard instead — the first of the
``stream_scan`` workload's ten (5,000 targets, Hamburg and Hong Kong,
two days) — and prints the mean per probe. ``--src`` points at another
checkout's ``src`` to count a different commit with this same script.
"""

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def counted(run, frames: Counter):
    """``(opcodes, calls, result)`` of ``run()``."""
    counts = [0, 0]

    def tracer(frame, event, _arg):
        if event == "call":
            counts[1] += 1
            code = frame.f_code
            frames[f"{Path(code.co_filename).name}:{code.co_name}"] += 1
            frame.f_trace_opcodes = True
        elif event == "opcode":
            counts[0] += 1
        return tracer

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        # The tracer returns itself through its closure cell: emptying
        # the cell keeps that cycle out of the garbage counts.
        del tracer
    return counts[0], counts[1], result


def count_cell(runner, scenario, seed, frames: Counter):
    """``(opcodes, calls, result)`` of one stats-level ``run_once``."""
    return counted(
        lambda: runner.run_once(scenario, seed=seed, capture_trace=False, record_qlog=False),
        frames,
    )


def print_top(frames: Counter, per: int, top: int, unit: str) -> None:
    print(f"\nframes entered per {unit}, top {top}:")
    for name, count in frames.most_common(top):
        print(f"  {count / per:8.2f}  {name}")


def count_shard(top: int) -> int:
    """Bytecodes and frames per probe of one synthetic scan shard."""
    from repro.runtime.artifacts import ArtifactLevel
    from repro.wild.stream.shard import ShardProbeTask

    task = ShardProbeTask(
        source_spec={"kind": "synthetic", "count": 50_000, "seed": 11},
        start=0,
        stop=5_000,
        shard_index=0,
        vantage_names=("Hamburg", "Hong Kong"),
        days=2,
        probe_seed=11,
    )
    frames: Counter = Counter()
    gc.collect()
    gc.disable()
    opcodes, calls, outcome = counted(lambda: task.execute_task(0, ArtifactLevel.STATS), frames)
    probes, targets = outcome.sketch.probes, outcome.shard_targets
    del outcome
    garbage = gc.collect()
    print(f"targets              {targets}")
    print(f"probes               {probes}")
    print(f"bytecodes per probe  {opcodes / probes:10.1f}")
    print(f"frames per probe     {calls / probes:10.2f}")
    print(f"garbage per probe    {garbage / probes:10.2f}")
    print_top(frames, probes, top, "probe")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    parser.add_argument("--src", default=str(REPO_ROOT / "src"), help="src/ to import repro from")
    parser.add_argument(
        "--shard", action="store_true", help="count one synthetic scan shard, per probe"
    )
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.shard:
        return count_shard(args.top)

    from repro.experiments.registry import get_spec
    from repro.interop.runner import Runner

    cells = []
    for name in ("fig12", "fig13"):
        spec = get_spec(name)
        cells.extend(spec.plan_cells(spec.resolve_params({"repetitions": 1})))
    runner = Runner()
    frames: Counter = Counter()
    opcodes = calls = datagrams = packets = 0
    garbage = []
    gc.collect()
    gc.disable()
    for cell in cells:
        ops, entered, result = count_cell(runner, cell.scenario, cell.seed, frames)
        opcodes += ops
        calls += entered
        for endpoint in (result.client, result.server):
            datagrams += endpoint.stats.datagrams_sent
            packets += sum(st.next_packet_number for st in endpoint.recovery.spaces)
        del result
        garbage.append(gc.collect())
    n = len(cells)
    print(f"cells                {n}")
    print(f"bytecodes per cell   {opcodes / n:10.1f}")
    print(f"frames per cell      {calls / n:10.1f}")
    print(f"datagrams per cell   {datagrams / n:10.1f}")
    print(f"packets per cell     {packets / n:10.1f}")
    # The first cell's residue is the lazy state of the modules it loads.
    print(f"garbage per cell     {sum(garbage[1:]) / (n - 1):10.1f}  (first cell: {garbage[0]})")
    print_top(frames, n, args.top, "cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
