#!/usr/bin/env python3
"""A fleet worker that fails on purpose, for failure-path tests and the
chaos drill.

    python scripts/fault_worker.py [FAULTS] --connect HOST:PORT [WORKER OPTIONS]

runs ``repro worker`` with any of four faults. Each one wraps a name
that ``repro.runtime.distributed`` looks up at call time, so the
product's worker loop keeps no test-only branch:

================================ ======================== ==============================
flag                             wraps                    the worker ...
================================ ======================== ==============================
``--kill-after N``               ``run_cell_chunk``       hard-exits (``os._exit(17)``,
                                                          like SIGKILL) on chunk N+1,
                                                          leaving it unacknowledged
``--delay SECS``                 ``run_cell_chunk``       sleeps before each chunk
``--drop-heartbeats N``          ``send_frame``           sends no HEARTBEAT after N
                                                          beats on a connection
``--slow-send BYTES_PER_S``      ``send_frame``           trickles each RESULT at that
                                                          rate, holding the send lock
================================ ======================== ==============================

The chunk count lives as long as the process, so a worker that rejoins
does not die again; the beat count starts over with each HELLO. The
first time a fault fires the worker prints ``fault: <kind> fired``.

Tests load this file with ``importlib`` and install a :class:`Faults`
with ``monkeypatch.setattr`` to fault an in-process worker thread.
"""

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as repro_main  # noqa: E402
from repro.runtime import distributed  # noqa: E402

#: Bytes per ``sendall`` of a throttled RESULT.
SLICE_BYTES = 512


class Faults:
    """The faults of one worker process and the counters they fire on."""

    def __init__(
        self,
        kill_after: Optional[int] = None,
        delay: Optional[float] = None,
        drop_heartbeats: Optional[int] = None,
        slow_send: Optional[float] = None,
    ):
        self.kill_after = kill_after
        self.delay = delay
        self.drop_heartbeats = drop_heartbeats
        self.slow_send = slow_send
        self.chunks = 0
        self.beats = 0
        #: Throttled ``sendall`` calls: more than one per RESULT shows
        #: the throttle engaged.
        self.slices = 0
        self.fired = set()
        self._run_cell_chunk = distributed.run_cell_chunk
        self._send_frame = distributed.send_frame

    def install(self, patch: Callable = setattr) -> None:
        """Wrap the worker loop's two seams; pass
        ``monkeypatch.setattr`` to undo it after a test."""
        patch(distributed, "run_cell_chunk", self.run_cell_chunk)
        patch(distributed, "send_frame", self.send_frame)

    def fire(self, kind: str) -> None:
        if kind not in self.fired:
            self.fired.add(kind)
            print(f"fault: {kind} fired", flush=True)

    def run_cell_chunk(self, *args, **kwargs):
        self.chunks += 1
        if self.kill_after is not None and self.chunks > self.kill_after:
            self.fire("kill_after")
            os._exit(17)
        if self.delay:
            self.fire("delay")
            time.sleep(self.delay)
        return self._run_cell_chunk(*args, **kwargs)

    def send_frame(self, sock, msg_type, payload, lock=None, size_aware_timeout=False):
        if msg_type == distributed.MSG_HELLO:
            self.beats = 0
        elif msg_type == distributed.MSG_HEARTBEAT and self.drop_heartbeats is not None:
            if self.beats >= self.drop_heartbeats:
                self.fire("drop_heartbeats")
                return 0, 0
            self.beats += 1
        elif msg_type == distributed.MSG_RESULT and self.slow_send:
            self.fire("slow_send")
            frame, raw_len = distributed.make_frame(msg_type, payload)
            with lock if lock is not None else contextlib.nullcontext():
                for start in range(0, len(frame), SLICE_BYTES):
                    piece = frame[start : start + SLICE_BYTES]
                    sock.sendall(piece)
                    self.slices += 1
                    time.sleep(len(piece) / self.slow_send)
            return len(frame), raw_len
        return self._send_frame(sock, msg_type, payload, lock, size_aware_timeout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro worker with injected faults; "
        "every other option goes to 'repro worker'",
        allow_abbrev=False,
    )
    parser.add_argument("--kill-after", type=int, metavar="N",
                        help="hard-exit on receiving chunk N+1")
    parser.add_argument("--delay", type=float, metavar="SECS",
                        help="sleep before computing each chunk")
    parser.add_argument("--drop-heartbeats", type=int, metavar="N",
                        help="stop heartbeating after N beats on a connection")
    parser.add_argument("--slow-send", type=float, metavar="BYTES_PER_S",
                        help="trickle RESULT frames at this rate")
    args, rest = parser.parse_known_args(argv)
    Faults(args.kill_after, args.delay, args.drop_heartbeats, args.slow_send).install()
    return repro_main(["worker", *rest])


if __name__ == "__main__":
    sys.exit(main())
