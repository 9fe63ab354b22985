"""Deterministic discrete-event loop.

The loop orders events by ``(time, sequence)`` so that events scheduled
for the same instant run in scheduling order, which keeps every
simulation fully deterministic — a requirement for reproducing the
paper's *indexed* datagram-loss experiments, where dropping "datagram 2
sent by the server" must mean the same datagram on every run.

The loop is the innermost layer of every emulated connection, so it is
written for throughput: the clock is a plain attribute, events nobody
will cancel (:meth:`EventLoop.post_at`) carry no :class:`Timer`,
cancelled timers are counted live (``pending()`` is O(1)), the heap is
compacted in place once cancelled entries outnumber live ones, and
:meth:`run` keeps the heap and bookkeeping in locals instead of
attribute lookups. :meth:`EventLoop.stop` costs :meth:`run` one flag
test per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Compaction is skipped below this heap size; scanning a handful of
#: entries is cheaper than rebuilding.
_COMPACT_MIN_SIZE = 16


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly."""


class Timer:
    """A cancellable handle for a scheduled callback.

    Returned by :meth:`EventLoop.call_at` / :meth:`EventLoop.call_later`.
    Cancelling a timer is O(1); the event is skipped when popped.
    """

    __slots__ = ("when", "callback", "args", "_cancelled", "_scheduled", "_loop")

    def __init__(
        self,
        when: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        loop: Optional["EventLoop"] = None,
    ):
        self.when = when
        self.callback = callback
        self.args = args
        self._cancelled = False
        #: True while the timer sits in its loop's heap; cancellations
        #: after the timer ran (or was compacted away) must not count
        #: toward the loop's cancelled-pending tally.
        self._scheduled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._loop is not None and self._scheduled:
            self._loop._note_cancelled(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled



class EventLoop:
    """A minimal, deterministic event loop with a simulated clock.

    Time is a float in milliseconds and only advances when events run.
    """

    __slots__ = (
        "now", "stopped", "_seq", "_heap", "_running", "_processed",
        "_cancelled_pending", "_compactions",
    )

    def __init__(self) -> None:
        #: Current simulated time in milliseconds (read-only for users).
        self.now: float = 0.0
        #: Whether :meth:`stop` ended the loop (read-only for users).
        self.stopped = False
        self._seq: int = 0
        #: ``(when, seq, timer)`` for :meth:`call_at` events and
        #: ``(when, seq, None, callback, args)`` for :meth:`post_at`
        #: ones; ``seq`` is unique, so comparison never gets past it.
        self._heap: List[Tuple[Any, ...]] = []
        self._running = False
        self._processed = 0
        #: Cancelled timers still sitting in the heap; kept live so
        #: ``pending()`` is O(1) and compaction knows when to trigger.
        self._cancelled_pending = 0
        self._compactions = 0

    @property
    def events_processed(self) -> int:
        """Number of events that have executed (for diagnostics)."""
        return self._processed

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (for diagnostics)."""
        return self._compactions

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute time ``when`` (ms)."""
        if not when >= self.now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event in the past: {when:.3f} < now {self.now:.3f}"
            )
        timer = Timer(when, callback, args, loop=self)
        timer._scheduled = True
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, timer))
        return timer

    def post_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`call_at` for an event nobody will cancel (a datagram
        delivery, a processing slot): same ordering, no handle."""
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {when:.3f} < now {self.now:.3f}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, None, callback, args))

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` milliseconds."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, *args)

    def _note_cancelled(self, timer: Timer) -> None:
        """Timer cancellation hook: count it and compact the heap once
        cancelled entries outnumber live ones."""
        self._cancelled_pending += 1
        heap = self._heap
        if (
            len(heap) >= _COMPACT_MIN_SIZE
            and self._cancelled_pending * 2 > len(heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify in place."""
        live = []
        for entry in self._heap:
            timer = entry[2]
            if timer is not None and timer._cancelled:
                timer._scheduled = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled_pending = 0
        self._compactions += 1

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> float:
        """Run events until the queue drains or time exceeds ``until``.

        Returns the simulated time after the run. ``max_events`` guards
        against runaway simulations (e.g. two endpoints ping-ponging
        forever); exceeding it raises :class:`SimulationError`.

        End-of-run clock handling is uniform across the drained and
        ``until``-bounded paths: the clock advances to ``until`` when
        that lies in the future, and never moves backwards — re-running
        with an earlier ``until`` leaves ``now`` untouched. A run ended
        by :meth:`stop` leaves the clock at the stop time.
        """
        if self._running:
            raise SimulationError("event loop is already running")
        if self.stopped:
            raise SimulationError("event loop was stopped")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        limit = float("inf") if until is None else until
        executed = 0
        try:
            while heap:
                when = heap[0][0]
                if when > limit:
                    break
                entry = heappop(heap)
                timer = entry[2]
                if timer is None:
                    callback, args = entry[3], entry[4]
                else:
                    timer._scheduled = False
                    if timer._cancelled:
                        self._cancelled_pending -= 1
                        continue
                    callback, args = timer.callback, timer.args
                self.now = when
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                callback(*args)
                if self.stopped:
                    return self.now
                # Callbacks may swap the heap via compaction.
                heap = self._heap
        finally:
            self._running = False
            self._processed += executed
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def stop(self) -> None:
        """End :meth:`run` after the current callback: no later event
        runs, including ones that callback schedules after the stop,
        and the clock stays at the stop time. A stopped loop cannot run
        again."""
        self.stopped = True

    def discard(self) -> None:
        """Cancel every pending event and let go of what it holds, for
        a loop whose run is over. A queued timer reaches its callback's
        owner, which usually holds the timer in turn, and the loop; a
        heap left behind keeps a finished simulation alive in reference
        cycles until the cyclic collector gets to it."""
        for entry in self._heap:
            timer = entry[2]
            if timer is not None:
                timer._cancelled = True
                timer._scheduled = False
                timer.callback, timer.args = None, ()
        self._heap = []
        self._cancelled_pending = 0

    def pending(self) -> int:
        """Number of non-cancelled events still queued. O(1)."""
        return len(self._heap) - self._cancelled_pending
