"""The simulator's frame sizes against real bytes, over real traffic.

Every datagram a handshake cell sends is sized arithmetically: each
frame's ``wire_size()`` feeds its packet's size, the amplification
budget, congestion control and the link's serialization delay. The
frames' ``encode()`` exists to check those sizes against bytes. Here
every distinct frame that the trace-level smoke cells of the loss and
TTFB figures build, on both links and dropped or not, must encode to
exactly its ``wire_size()``, and decode back to a frame of its own type.
"""

from collections import Counter

import pytest

from repro.quic.frames import AckFrame, CryptoFrame, PaddingFrame, StreamFrame
from repro.runtime.artifacts import ArtifactLevel, execute_cell
from repro.runtime.suite import SuiteRunner
from tests.wire_codec import decode_frames

EXPERIMENTS = ("fig5", "fig6", "fig7", "fig12", "fig13", "fig16")


@pytest.fixture(scope="module")
def simulated_frames():
    """Each distinct frame the smoke cells send, with how often."""
    plan = SuiteRunner().plan(list(EXPERIMENTS), smoke=True)
    frames = Counter()
    for cell in plan.unique_cells:
        artifacts = execute_cell(cell.scenario, cell.seed, ArtifactLevel.TRACE)
        for record in artifacts.tracer.records:
            for packet in record.payload.packets:
                frames.update(packet.frames)
    return frames


def test_the_smoke_cells_send_every_handshake_frame_kind(simulated_frames):
    kinds = {type(frame) for frame in simulated_frames}
    assert {AckFrame, CryptoFrame, PaddingFrame, StreamFrame} <= kinds
    assert any(len(frame.ranges) > 1 for frame in simulated_frames if type(frame) is AckFrame)


def test_every_simulated_frame_encodes_to_its_wire_size(simulated_frames):
    wrong = [
        (frame, frame.wire_size(), len(frame.encode()))
        for frame in simulated_frames
        if len(frame.encode()) != frame.wire_size()
    ]
    assert not wrong, wrong[:5]


def test_every_simulated_frame_decodes_to_its_own_kind(simulated_frames):
    for frame in simulated_frames:
        decoded = decode_frames(frame.encode())
        assert [type(item) for item in decoded] == [type(frame)]
        assert decoded[0].wire_size() == frame.wire_size()
