"""Iterator-style consumption of run events.

:meth:`repro.api.Session.run` delivers events through a callback; a
:class:`RunStream` turns the same run into something a notebook or
service loop can ``for`` over::

    with Session() as session:
        stream = session.stream(RunRequest(("fig6", "fig12"), smoke=True))
        for event in stream:
            print(event.describe())
        report = stream.result()

The run executes on a background thread; iteration yields each
:class:`~repro.runtime.events.RunEvent` as it happens and ends when
the run ends. :meth:`RunStream.result` then returns the
:class:`~repro.runtime.suite.SuiteReport` — or re-raises the run's
failure, so a crashed run cannot be mistaken for an empty one.
"""

from __future__ import annotations

import threading
from queue import SimpleQueue
from typing import Callable, Iterator, Optional

from repro.runtime.events import EventSink, RunEvent
from repro.runtime.suite import SuiteReport

__all__ = ["RunStream"]

#: Queue sentinel marking the end of the event stream.
_DONE = object()


class RunStream:
    """One in-flight run, consumed as an iterator of events."""

    def __init__(self, launch: Callable[[EventSink], SuiteReport]):
        self._queue: SimpleQueue = SimpleQueue()
        self._report: Optional[SuiteReport] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._drive, args=(launch,), daemon=True)
        self._thread.start()

    def _drive(self, launch: Callable[[EventSink], SuiteReport]) -> None:
        try:
            self._report = launch(self._queue.put)
        except BaseException as exc:  # re-raised in result()
            self._error = exc
        finally:
            self._queue.put(_DONE)

    def __iter__(self) -> Iterator[RunEvent]:
        while True:
            item = self._queue.get()
            if item is _DONE:
                return
            yield item

    def result(self, timeout: Optional[float] = None) -> SuiteReport:
        """Block until the run finishes and return its report.

        Raises the run's exception if it failed, or ``TimeoutError``
        if ``timeout`` elapses first.
        """
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("run still executing")
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report
