#!/usr/bin/env python3
"""Count what one cell costs the interpreter: bytecodes and frames.

Runs every cell of the ``handshake_sweep`` selection (fig12 + fig13 at
one repetition, stats level) under ``sys.settrace`` with per-opcode
events on, and prints the mean per cell: bytecodes executed, Python
frames entered, datagrams and packets moved, and the functions that
were entered most. Pure counts — they repeat exactly on any machine,
so PERFORMANCE.md quotes them beside the (noisy) ``benchmarks/e2e``
timings::

    python scripts/cell_opcount.py [--top 25] [--src PATH]

``--src`` points at another checkout's ``src`` to count a different
commit with this same script.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def count_cell(runner, scenario, seed, frames: Counter):
    """``(opcodes, calls)`` of one stats-level ``run_once``."""
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
        result = runner.run_once(scenario, seed=seed, capture_trace=False, record_qlog=False)
    finally:
        sys.settrace(None)
    return counts[0], counts[1], result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    parser.add_argument("--src", default=str(REPO_ROOT / "src"), help="src/ to import repro from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.experiments.registry import get_spec
    from repro.interop.runner import Runner

    cells = []
    for name in ("fig12", "fig13"):
        spec = get_spec(name)
        cells.extend(spec.plan_cells(spec.resolve_params({"repetitions": 1})))
    runner = Runner()
    frames: Counter = Counter()
    opcodes = calls = datagrams = packets = 0
    for cell in cells:
        ops, entered, result = count_cell(runner, cell.scenario, cell.seed, frames)
        opcodes += ops
        calls += entered
        for endpoint in (result.client, result.server):
            datagrams += endpoint.stats.datagrams_sent
            packets += sum(st.next_packet_number for st in endpoint.recovery.spaces)
    n = len(cells)
    print(f"cells                {n}")
    print(f"bytecodes per cell   {opcodes / n:10.1f}")
    print(f"frames per cell      {calls / n:10.1f}")
    print(f"datagrams per cell   {datagrams / n:10.1f}")
    print(f"packets per cell     {packets / n:10.1f}")
    print(f"\nframes entered per cell, top {args.top}:")
    for name, count in frames.most_common(args.top):
        print(f"  {count / n:8.1f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
