"""Shared experiment plumbing."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.render import render_table
from repro.schema import BUNDLE_SCHEMA_VERSION, check_bundle_version, render_json


#: Values ``json`` writes and reads back as themselves.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def jsonable(value: Any, default: Optional[Callable[[Any], Any]] = None) -> Any:
    """``json.loads(json.dumps(value, default=default))`` without the
    text in between: tuples become lists, keys become strings the way
    ``json`` writes them (``True`` → ``"true"``, ``1.0`` → ``"1.0"``),
    and a value ``json`` cannot write goes through ``default``, or
    raises ``TypeError`` without one."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item, default) for item in value]
    if isinstance(value, dict):
        return {_key(key): jsonable(item, default) for key, item in value.items()}
    if isinstance(value, (str, int, float)):  # a subclass: json writes the base value
        return json.loads(json.dumps(value))
    if default is None:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return jsonable(default(value), default)


def _key(key: Any) -> str:
    """A dict key as ``json`` writes it."""
    if isinstance(key, str):
        return str.__str__(key)
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@dataclass
class ExperimentResult:
    """Outcome of one experiment: named rows plus free-form series.

    ``rows`` render as the experiment's primary table;
    ``paper_reference`` documents the corresponding published values
    so EXPERIMENTS.md can show paper-vs-measured side by side.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")

    def row_map(self, key_column: int = 0) -> Dict[Any, List[Any]]:
        """Index rows by one column (usually the first)."""
        return {row[key_column]: row for row in self.rows}

    # -- JSON round trip ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form of the result.

        The payload is stamped with the bundle ``schema_version``
        (:data:`repro.schema.BUNDLE_SCHEMA_VERSION`) so readers can
        validate before parsing. ``extra`` may hold arbitrary analysis
        objects (model curves, sweep points); keys whose values do not
        serialize are dropped and listed under ``extra_dropped`` so
        bundles stay honest about what they omit. Tuples normalize to
        lists, as JSON demands.
        """
        extra: Dict[str, Any] = {}
        dropped: List[str] = []
        for key, value in self.extra.items():
            try:
                extra[key] = jsonable(value)
            except (TypeError, ValueError, RecursionError):
                dropped.append(key)
        payload: Dict[str, Any] = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": jsonable(self.rows, default=str),
            "paper_reference": jsonable(self.paper_reference, default=str),
            "extra": extra,
        }
        if dropped:
            payload["extra_dropped"] = sorted(dropped)
        return payload

    def to_json(self) -> str:
        return render_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from a bundle payload.

        A payload without a ``schema_version`` stamp, or with a
        *newer* one, raises :class:`~repro.errors.BundleVersionError`
        instead of half-parsing an unknown format.
        """
        check_bundle_version(payload, what="experiment result bundle")
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            paper_reference=dict(payload.get("paper_reference", {})),
            extra=dict(payload.get("extra", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))


#: Clients in the order the paper's figures list them.
CLIENT_ORDER = (
    "aioquic",
    "go-x-net",
    "mvfst",
    "neqo",
    "ngtcp2",
    "picoquic",
    "quic-go",
    "quiche",
)

#: HTTP/3-capable clients (go-x-net "does not implement HTTP/3").
H3_CLIENT_ORDER = tuple(c for c in CLIENT_ORDER if c != "go-x-net")


def clients_for(http: str):
    return CLIENT_ORDER if http == "h1" else H3_CLIENT_ORDER

