"""Structured fault injection for distributed-runtime chaos testing.

The failure-path tests and the CI chaos job need workers that fail in
*specific*, reproducible ways: die with a chunk in flight, stop
heartbeating, corrupt a frame, trickle results over a slow socket.
A declarative :class:`FaultPlan` describes them; the worker CLI accepts
one as ``--fault-plan SPEC``.

A spec is a comma-separated ``key=value`` list::

    kill_after=2,delay=0.05,drop_heartbeats=5,corrupt_result=1,slow_send=65536

========================= ============================================
key                       effect on the worker
========================= ============================================
``kill_after=N``          hard-exit (``os._exit``, indistinguishable
                          from SIGKILL) upon *receiving* chunk N+1 —
                          guarantees an unacknowledged in-flight chunk
``delay=SECONDS``         sleep before computing each chunk (a slow
                          CPU / straggler)
``drop_heartbeats=N``     stop heartbeating after N beats (a wedged
                          liveness thread; the coordinator must drop
                          the worker on its heartbeat timeout)
``corrupt_result=K``      replace the K-th RESULT frame with garbage
                          bytes (a protocol violation; the coordinator
                          must drop the worker, never crash)
``slow_send=BYTES_PER_S`` throttle RESULT frame sends to this rate
                          (a thin uplink mid-transfer)
``seed=N``                records which chaos seed chose this plan
                          (accounting only; no behavior)
========================= ============================================

Every fault maps to a failure mode the coordinator already survives,
so a suite run under any :class:`FaultPlan` must still produce a
bundle byte-identical to a fault-free run — that invariant is what the
chaos tests assert.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["FaultInjector", "FaultPlan", "parse_fault_plan"]

_INT_FIELDS = {"kill_after_chunks", "drop_heartbeats_after", "corrupt_result_chunk", "seed"}
_KEY_ALIASES = {
    "kill_after": "kill_after_chunks",
    "delay": "delay_chunk_seconds",
    "drop_heartbeats": "drop_heartbeats_after",
    "corrupt_result": "corrupt_result_chunk",
    "slow_send": "slow_send_bytes_per_sec",
    "seed": "seed",
}
_SPEC_KEYS = {v: k for k, v in _KEY_ALIASES.items()}


@dataclass(frozen=True)
class FaultPlan:
    """A declarative set of faults one worker should inject.

    All fields default to "no fault"; combine freely. See the module
    docs for the CLI spec vocabulary.
    """

    #: Hard-exit upon receiving the (N+1)-th chunk (N chunks served).
    kill_after_chunks: Optional[int] = None
    #: Sleep this long before computing each chunk.
    delay_chunk_seconds: Optional[float] = None
    #: Stop sending heartbeats after this many beats.
    drop_heartbeats_after: Optional[int] = None
    #: Replace the K-th RESULT frame (1-based) with garbage bytes.
    corrupt_result_chunk: Optional[int] = None
    #: Throttle RESULT frame sends to this many bytes/sec.
    slow_send_bytes_per_sec: Optional[float] = None
    #: The chaos seed that generated this plan (accounting only).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kill_after_chunks is not None and self.kill_after_chunks < 0:
            raise ValueError("kill_after must be >= 0")
        if self.delay_chunk_seconds is not None and self.delay_chunk_seconds < 0:
            raise ValueError("delay must be >= 0")
        if self.drop_heartbeats_after is not None and self.drop_heartbeats_after < 0:
            raise ValueError("drop_heartbeats must be >= 0")
        if self.corrupt_result_chunk is not None and self.corrupt_result_chunk < 1:
            raise ValueError("corrupt_result is 1-based and must be >= 1")
        if self.slow_send_bytes_per_sec is not None and self.slow_send_bytes_per_sec <= 0:
            raise ValueError("slow_send must be positive")

    def is_noop(self) -> bool:
        """True when no fault is configured (``seed`` alone injects
        nothing)."""
        return all(
            getattr(self, f.name) is None for f in fields(self) if f.name != "seed"
        )

    def to_spec(self) -> str:
        """The ``key=value,...`` spec string :func:`parse_fault_plan`
        round-trips — how the chaos driver hands plans to worker
        processes on their command line."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in _INT_FIELDS:
                parts.append(f"{_SPEC_KEYS[f.name]}={int(value)}")
            else:
                parts.append(f"{_SPEC_KEYS[f.name]}={value:g}")
        return ",".join(parts)

    def describe(self) -> str:
        return self.to_spec() or "none"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,...`` spec (see the module docs).

        Raises :class:`ValueError` on unknown keys or malformed
        values, naming the offending token.
        """
        kwargs = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, sep, raw = token.partition("=")
            key = key.strip()
            if not sep or key not in _KEY_ALIASES:
                known = ", ".join(sorted(_KEY_ALIASES))
                raise ValueError(
                    f"bad fault-plan token {token!r}; expected key=value "
                    f"with key in: {known}"
                )
            field_name = _KEY_ALIASES[key]
            try:
                if field_name in _INT_FIELDS:
                    kwargs[field_name] = int(raw)
                else:
                    kwargs[field_name] = float(raw)
            except ValueError:
                raise ValueError(
                    f"bad fault-plan value in {token!r}: "
                    f"{'an integer' if field_name in _INT_FIELDS else 'a number'} "
                    "is required"
                ) from None
        return cls(**kwargs)

    @classmethod
    def random(cls, seed: int, kill: bool = True) -> "FaultPlan":
        """A randomized-but-reproducible plan for chaos runs: always
        prints/record the seed so a failing CI run can be replayed
        exactly. ``kill=False`` restricts to non-fatal faults (delay /
        dropped heartbeats) for workers that must survive."""
        rng = _random.Random(seed)
        kwargs: dict = {"seed": seed}
        if kill and rng.random() < 0.5:
            kwargs["kill_after_chunks"] = rng.randint(0, 2)
        if rng.random() < 0.6:
            kwargs["delay_chunk_seconds"] = round(rng.uniform(0.01, 0.2), 3)
        if rng.random() < 0.4:
            kwargs["drop_heartbeats_after"] = rng.randint(1, 5)
        if kill and rng.random() < 0.25:
            kwargs["corrupt_result_chunk"] = rng.randint(1, 3)
        return cls(**kwargs)


def parse_fault_plan(spec: Optional[str]) -> Optional[FaultPlan]:
    """CLI-facing helper: ``None``/empty → no plan, else
    :meth:`FaultPlan.parse`."""
    if spec is None or not spec.strip():
        return None
    return FaultPlan.parse(spec)


class FaultInjector:
    """Mutable per-process runtime state of one :class:`FaultPlan`.

    The worker consults one injector across its whole process lifetime
    (counters deliberately survive reconnects: a ``kill_after=2``
    worker that rejoins must not arm the same bomb again).
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self.plan = plan if plan is not None and not plan.is_noop() else None
        self.chunks_received = 0
        self.results_sent = 0
        self.kill_fired = False
        self.corrupt_fired = False

    def should_kill_on_chunk(self) -> bool:
        """Called when a CHUNK frame arrives (before computing): does
        the plan demand a hard-exit now?"""
        plan = self.plan
        self.chunks_received += 1
        if plan is None or plan.kill_after_chunks is None or self.kill_fired:
            return False
        if self.chunks_received > plan.kill_after_chunks:
            self.kill_fired = True
            return True
        return False

    def chunk_delay(self) -> float:
        plan = self.plan
        if plan is None or plan.delay_chunk_seconds is None:
            return 0.0
        return plan.delay_chunk_seconds

    def heartbeat_budget(self) -> Optional[int]:
        """Beats to send before going silent, or ``None`` for
        unlimited."""
        plan = self.plan
        if plan is None:
            return None
        return plan.drop_heartbeats_after

    def should_corrupt_result(self) -> bool:
        """Called per RESULT about to be sent (counts it): corrupt
        this one?"""
        plan = self.plan
        self.results_sent += 1
        if plan is None or plan.corrupt_result_chunk is None or self.corrupt_fired:
            return False
        if self.results_sent == plan.corrupt_result_chunk:
            self.corrupt_fired = True
            return True
        return False

    def send_rate(self) -> Optional[float]:
        plan = self.plan
        if plan is None:
            return None
        return plan.slow_send_bytes_per_sec
