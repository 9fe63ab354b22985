"""In-memory spans and counts for the traced pass.

Everything here is recorded from outside the program: timestamps taken
by event sinks handed to ``on_event=`` and stopwatches around public
calls. Spans are kept in a list and written once, at exit.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

now = time.perf_counter


class Trace:
    """Spans (``id, name, workload, start, end, parent``) and counts."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()

    def add(
        self, name: str, workload: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        span_id = len(self.spans) + 1
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "workload": workload,
                "start": start,
                "end": end,
                "parent": parent,
            }
        )
        return span_id

    def open(self, name: str, workload: str, parent: Optional[int] = None) -> int:
        """A span whose end is not known yet; :meth:`close` sets it."""
        start = now()
        return self.add(name, workload, start, start, parent)

    def close(self, span_id: int) -> None:
        self.spans[span_id - 1]["end"] = now()

    @contextmanager
    def timed(self, name: str, workload: str, parent: Optional[int] = None) -> Iterator[None]:
        start = now()
        try:
            yield
        finally:
            self.add(name, workload, start, now(), parent)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str, workload: str) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["workload"] == workload
        ]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part of it its children cover
        (children may overlap each other: two workers' chunks do)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out[span["id"]] = (span["end"] - span["start"]) - covered
        return out

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        selfs = self.self_times()
        doc = dict(extra)
        doc["clock"] = "time.perf_counter seconds of the tracing process"
        doc["spans"] = [dict(span, self_s=selfs[span["id"]]) for span in self.spans]
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def check_nesting(doc: Dict[str, Any]) -> List[str]:
    """Problems in a written trace document: a child outside its
    parent, a dangling parent, or a negative self time."""
    by_id = {span["id"]: span for span in doc["spans"]}
    problems = []
    for span in doc["spans"]:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} {span['name']} ends before it starts")
        if span["self_s"] < -1e-9:
            problems.append(f"span {span['id']} {span['name']} has negative self time")
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"span {span['id']} {span['name']} has no parent {span['parent']}")
        elif span["start"] < parent["start"] or span["end"] > parent["end"]:
            problems.append(
                f"span {span['id']} {span['name']} lies outside its parent {parent['name']}"
            )
    return problems


class EventLog:
    """An event sink that only timestamps: sinks run on the runtime's
    own threads, so all interpretation happens after the run."""

    def __init__(self) -> None:
        self.events: List[Tuple[float, Any]] = []

    def __call__(self, event: Any) -> None:
        self.events.append((now(), event))

    def first(self, kind: str) -> Optional[float]:
        for at, event in self.events:
            if type(event).__name__ == kind:
                return at
        return None

    def last(self, kind: str) -> Optional[float]:
        for at, event in reversed(self.events):
            if type(event).__name__ == kind:
                return at
        return None

    def pairs(self, opened: str, closed: str, key) -> List[Tuple[Any, float, float]]:
        """Match each ``opened`` event with the next ``closed`` event of
        the same ``key(event)``: ``(key, opened_at, closed_at)``."""
        waiting: Dict[Any, List[float]] = {}
        out = []
        for at, event in self.events:
            kind = type(event).__name__
            if kind == opened:
                waiting.setdefault(key(event), []).append(at)
            elif kind == closed and waiting.get(key(event)):
                out.append((key(event), waiting[key(event)].pop(0), at))
        return out


def suite_phases(
    trace: Trace, log: EventLog, workload: str, start: float, parent: int
) -> Optional[Dict[str, Any]]:
    """``plan`` / ``execute`` / ``aggregate`` spans of one suite run
    from the events it emitted (``start`` → ``SuitePlanned`` → first
    ``ExperimentCompleted`` → ``SuiteCompleted``); returns the
    ``execute`` span, or ``None`` (counted) when an event is missing."""
    planned = log.first("SuitePlanned")
    aggregating = log.first("ExperimentCompleted")
    completed = log.last("SuiteCompleted")
    if None in (planned, aggregating, completed):
        trace.count(f"{workload}.runs_without_phase_events")
        return None
    trace.add("plan", workload, start, planned, parent)
    execute = trace.add("execute", workload, planned, aggregating, parent)
    trace.add("aggregate", workload, aggregating, completed, parent)
    return trace.spans[execute - 1]
