"""Tests for the discrete-event loop."""

import pytest

from repro.sim.engine import EventLoop, SimulationError


def test_time_starts_at_zero():
    assert EventLoop().now == 0.0


def test_call_later_runs_in_order():
    loop = EventLoop()
    order = []
    loop.call_later(5.0, order.append, "b")
    loop.call_later(1.0, order.append, "a")
    loop.call_later(9.0, order.append, "c")
    loop.run()
    assert order == ["a", "b", "c"]
    assert loop.now == 9.0


def test_same_time_events_run_in_scheduling_order():
    loop = EventLoop()
    order = []
    for tag in ("first", "second", "third"):
        loop.call_at(4.0, order.append, tag)
    loop.run()
    assert order == ["first", "second", "third"]


def test_cancelled_timer_does_not_run():
    loop = EventLoop()
    fired = []
    timer = loop.call_later(1.0, fired.append, 1)
    timer.cancel()
    loop.run()
    assert fired == []
    assert timer.cancelled


def test_run_until_stops_before_future_events():
    loop = EventLoop()
    fired = []
    loop.call_later(10.0, fired.append, 1)
    loop.run(until=5.0)
    assert fired == []
    assert loop.now == 5.0
    loop.run(until=20.0)
    assert fired == [1]


def test_run_until_advances_time_with_no_events():
    loop = EventLoop()
    loop.run(until=42.0)
    assert loop.now == 42.0


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.call_later(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.call_later(-1.0, lambda: None)


def test_non_finite_times_never_reach_the_heap():
    """NaN satisfies neither ``when < now`` nor ``when >= now``; the
    guards are written the second way so it is refused — it used to
    be accepted, run between its neighbours in heap order and set the
    clock to NaN."""
    loop = EventLoop()
    nan = float("nan")
    for schedule in (loop.call_at, loop.post_at):
        with pytest.raises(SimulationError):
            schedule(nan, lambda: None)
    with pytest.raises(SimulationError):
        loop.call_later(nan, lambda: None)
    assert loop.pending() == 0
    assert loop.run() == 0.0


def test_post_at_orders_with_call_at_and_returns_no_handle():
    loop = EventLoop()
    seen = []
    loop.call_at(2.0, seen.append, "timer@2")
    assert loop.post_at(2.0, seen.append, "post@2") is None
    loop.post_at(1.0, seen.append, "post@1")
    cancelled = loop.call_at(1.5, seen.append, "cancelled")
    cancelled.cancel()
    assert loop.pending() == 3
    loop.run()
    assert seen == ["post@1", "timer@2", "post@2"]
    with pytest.raises(SimulationError):
        loop.post_at(1.0, seen.append, "past")


def test_callbacks_can_schedule_more_events():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            loop.call_later(1.0, chain, n + 1)

    loop.call_at(loop.now, chain, 0)
    loop.run()
    assert seen == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_max_events_guard():
    loop = EventLoop()

    def forever():
        loop.call_later(1.0, forever)

    loop.call_at(loop.now, forever)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)


def test_pending_counts_only_live_timers():
    loop = EventLoop()
    keep = loop.call_later(1.0, lambda: None)
    gone = loop.call_later(2.0, lambda: None)
    gone.cancel()
    assert loop.pending() == 1
    assert keep.when == 1.0


def test_events_processed_counter():
    loop = EventLoop()
    for _ in range(5):
        loop.call_later(1.0, lambda: None)
    loop.run()
    assert loop.events_processed == 5


def test_pending_is_live_counted_and_compaction_triggers():
    loop = EventLoop()
    timers = [loop.call_later(float(i + 1), lambda: None) for i in range(40)]
    assert loop.pending() == 40
    # Cancelling more than half the heap triggers an in-place compaction.
    for timer in timers[:30]:
        timer.cancel()
    assert loop.pending() == 10
    assert loop.compactions >= 1
    # The compaction pass physically removed the cancelled majority.
    assert len(loop._heap) < 40
    fired = []
    for timer in timers[30:]:
        timer.callback = fired.append
        timer.args = (timer.when,)
    loop.run()
    assert fired == [float(i + 1) for i in range(30, 40)]


def test_cancel_after_run_does_not_corrupt_pending():
    loop = EventLoop()
    done = loop.call_later(1.0, lambda: None)
    keep = loop.call_later(5.0, lambda: None)
    loop.run(until=2.0)
    # Cancelling an already-executed timer must not affect accounting.
    done.cancel()
    assert loop.pending() == 1
    keep.cancel()
    assert loop.pending() == 0


def test_double_cancel_counts_once():
    loop = EventLoop()
    timer = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert loop.pending() == 1


def test_run_until_never_rewinds_clock():
    """Regression: a loop stopped by the early-break path used to set
    ``now`` to ``until`` even when that lay in the past, rewinding the
    clock on a re-run with an earlier ``until``."""
    loop = EventLoop()
    loop.call_later(10.0, lambda: None)
    loop.run(until=5.0)
    assert loop.now == 5.0
    loop.run(until=3.0)  # earlier than the current clock
    assert loop.now == 5.0
    loop.run(until=20.0)
    assert loop.now == 10.0 or loop.now == 20.0


def test_run_until_consistent_between_break_and_drain_paths():
    breaker = EventLoop()
    breaker.call_later(10.0, lambda: None)
    assert breaker.run(until=4.0) == 4.0
    drainer = EventLoop()
    drainer.call_later(2.0, lambda: None)
    assert drainer.run(until=4.0) == 4.0
    assert breaker.now == drainer.now


def test_compaction_during_run_is_safe():
    loop = EventLoop()
    cancelled = []

    def cancel_many():
        for timer in cancelled:
            timer.cancel()

    loop.call_later(1.0, cancel_many)
    cancelled.extend(loop.call_later(100.0 + i, lambda: None) for i in range(64))
    survivors = []
    loop.call_later(200.0, survivors.append, "end")
    loop.run()
    assert survivors == ["end"]
    assert loop.compactions >= 1


def test_stop_inside_a_callback_runs_no_later_event():
    """``stop`` ends ``run`` after the callback at hand: later events —
    including same-instant ones and those that callback schedules after
    the stop — stay queued, and the clock stays at the stop time rather
    than advancing to ``until``."""
    loop = EventLoop()
    order = []

    def stopping():
        order.append("stop")
        loop.stop()
        loop.call_at(loop.now, order.append, "scheduled after the stop")
        loop.post_at(loop.now, order.append, "posted after the stop")

    loop.call_at(2.0, order.append, "before")
    loop.call_at(5.0, stopping)
    loop.call_at(5.0, order.append, "same instant")
    loop.call_at(9.0, order.append, "later")
    assert loop.run(until=60_000.0) == 5.0
    assert order == ["before", "stop"]
    assert loop.now == 5.0 and loop.stopped
    assert loop.events_processed == 2
    assert loop.pending() == 4


def test_a_stopped_loop_cannot_run_again():
    loop = EventLoop()
    loop.call_at(1.0, loop.stop)
    loop.call_at(3.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError, match="stopped"):
        loop.run()
    with pytest.raises(SimulationError, match="stopped"):
        loop.run()
    assert loop.now == 1.0 and loop.events_processed == 1


def test_discard_cancels_every_pending_event_and_drops_what_it_holds():
    loop = EventLoop()
    fired = []
    timer = loop.call_later(1.0, fired.append, "timer")
    cancelled = loop.call_later(2.0, fired.append, "cancelled")
    cancelled.cancel()
    loop.post_at(3.0, fired.append, "posted")
    loop.discard()
    assert loop.pending() == 0
    assert timer.cancelled and timer.callback is None and timer.args == ()
    timer.cancel()  # a cancel after the discard counts nothing
    assert loop.pending() == 0
    loop.run()
    assert fired == [] and loop.now == 0.0
