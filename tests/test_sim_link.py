"""Tests for links: delay, serialization, loss, and tracing."""

import pytest

from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.loss import IndexedLoss
from repro.sim.trace import Tracer


def test_propagation_delay_only():
    loop = EventLoop()
    link = Link(loop, one_way_delay_ms=10.0, bandwidth_bps=None)
    arrivals = []
    link.send("x", 1200, lambda p: arrivals.append(loop.now))
    loop.run()
    assert arrivals == [10.0]


def test_serialization_delay_at_10mbps():
    loop = EventLoop()
    link = Link(loop, one_way_delay_ms=0.0, bandwidth_bps=10_000_000)
    arrivals = []
    link.send("x", 1250, lambda p: arrivals.append(loop.now))
    loop.run()
    # 1250 B * 8 / 10 Mbit/s = 1 ms
    assert arrivals == [pytest.approx(1.0)]


def test_fifo_serialization_queues_back_to_back_sends():
    loop = EventLoop()
    link = Link(loop, one_way_delay_ms=5.0, bandwidth_bps=10_000_000)
    arrivals = []
    link.send("a", 1250, lambda p: arrivals.append((p, loop.now)))
    link.send("b", 1250, lambda p: arrivals.append((p, loop.now)))
    loop.run()
    assert arrivals == [("a", pytest.approx(6.0)), ("b", pytest.approx(7.0))]


def test_indexed_loss_drops_but_counts():
    loop = EventLoop()
    link = Link(loop, 1.0, None, loss=IndexedLoss({2}))
    delivered = []
    for name in ("a", "b", "c"):
        link.send(name, 100, delivered.append)
    loop.run()
    assert delivered == ["a", "c"]
    assert link.offered == 3
    assert link.dropped == 1


def test_dropped_datagram_still_occupies_wire_time():
    loop = EventLoop()
    link = Link(loop, 0.0, 10_000_000, loss=IndexedLoss({1}))
    arrivals = []
    link.send("lost", 1250, lambda p: arrivals.append(loop.now))
    link.send("ok", 1250, lambda p: arrivals.append(loop.now))
    loop.run()
    # The dropped first datagram serialized for 1 ms before "ok".
    assert arrivals == [pytest.approx(2.0)]


def test_tracer_records_drops_and_sizes():
    loop = EventLoop()
    tracer = Tracer()
    link = Link(loop, 1.0, None, loss=IndexedLoss({1}), name="s->c", tracer=tracer)
    link.send("x", 700, lambda p: None)
    link.send("y", 800, lambda p: None)
    loop.run()
    assert len(tracer.records) == 2
    assert tracer.records[0].dropped and not tracer.records[1].dropped
    assert sum(r.size for r in tracer.filter(link="s->c", dropped=False)) == 800
    assert sum(r.size for r in tracer.filter(link="s->c")) == 1500
    dropped = tracer.filter(link="s->c", dropped=True)
    assert [r.size for r in dropped] == [700]


def test_link_validation():
    loop = EventLoop()
    with pytest.raises(ValueError):
        Link(loop, -1.0)
    with pytest.raises(ValueError):
        Link(loop, 1.0, bandwidth_bps=0)
    link = Link(loop, 1.0)
    with pytest.raises(ValueError):
        link.send("x", 0, lambda p: None)


def test_link_reset_clears_counters():
    loop = EventLoop()
    link = Link(loop, 1.0, None, loss=IndexedLoss({1}))
    link.send("x", 10, lambda p: None)
    link.reset()
    assert link.offered == 0 and link.dropped == 0
