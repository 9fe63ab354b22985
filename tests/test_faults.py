"""The fault harness, ``scripts/fault_worker.py``: its kill counter spans
the process (a rejoin does not reset it), its beat count starts over at
each HELLO, and a harness without faults passes every call through."""

import random
import socket
import threading
import time

import pytest

from repro.runtime.distributed import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    make_frame,
    recv_frame,
)
from tests.sweeps import fault_worker


class Exited(Exception):
    pass


def test_injector_kill_fires_once_after_threshold(monkeypatch, capsys):
    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(fault_worker.os, "_exit", exit_)
    faults = fault_worker.Faults(kill_after=2)
    faults._run_cell_chunk = lambda *args, **kwargs: "results"
    left, right = socket.socketpair()
    try:
        assert faults.run_cell_chunk() == "results"  # chunk 1
        faults.send_frame(left, MSG_HELLO, {})  # a rejoin keeps the count
        assert faults.run_cell_chunk() == "results"  # chunk 2
        with pytest.raises(Exited, match="17"):
            faults.run_cell_chunk()  # chunk 3: die with it in flight
    finally:
        left.close()
        right.close()
    assert capsys.readouterr().out == "fault: kill_after fired\n"


def test_injector_delay_heartbeats_and_send_rate_passthrough(capsys):
    left, right = socket.socketpair()
    try:
        # a harness without faults passes both seams through
        quiet = fault_worker.Faults()
        quiet._run_cell_chunk = lambda *args, **kwargs: "results"
        assert quiet.run_cell_chunk() == "results"
        quiet.send_frame(left, MSG_HEARTBEAT, None)
        assert recv_frame(right) == (MSG_HEARTBEAT, None)
        assert capsys.readouterr().out == ""

        slow = fault_worker.Faults(delay=0.05)
        slow._run_cell_chunk = lambda *args, **kwargs: "results"
        started = time.monotonic()
        assert slow.run_cell_chunk() == "results"
        assert time.monotonic() - started >= 0.05

        # two beats per connection, then silence until the next HELLO
        mute = fault_worker.Faults(drop_heartbeats=2)
        for _ in range(3):
            mute.send_frame(left, MSG_HEARTBEAT, None)
        mute.send_frame(left, MSG_HELLO, {"epoch": 1})
        mute.send_frame(left, MSG_HEARTBEAT, None)
        left.shutdown(socket.SHUT_WR)
        received = []
        while True:
            try:
                received.append(recv_frame(right)[0])
            except (ConnectionError, OSError):
                break
        assert received == [MSG_HEARTBEAT, MSG_HEARTBEAT, MSG_HELLO, MSG_HEARTBEAT]
    finally:
        left.close()
        right.close()

    left, right = socket.socketpair()
    try:
        throttled = fault_worker.Faults(slow_send=1_000_000)
        payload = (1, 0, [(0, random.Random(0).randbytes(5000))], None)
        lock = threading.Lock()
        sent = throttled.send_frame(left, MSG_RESULT, payload, lock=lock)
        frame, raw_len = make_frame(MSG_RESULT, payload)
        assert sent == (len(frame), raw_len)
        assert recv_frame(right) == (MSG_RESULT, payload)
        assert throttled.slices == -(-len(frame) // fault_worker.SLICE_BYTES) > 1
        assert not lock.locked()
    finally:
        left.close()
        right.close()
    assert capsys.readouterr().out == (
        "fault: delay fired\nfault: drop_heartbeats fired\nfault: slow_send fired\n"
    )
