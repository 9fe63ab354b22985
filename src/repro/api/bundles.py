"""Versioned result bundles: writing and reading run output.

A *bundle* is the on-disk form of a run: one
``<experiment_id>.json`` per experiment plus a ``suite.json`` report,
every file stamped with ``schema_version``
(:data:`repro.schema.BUNDLE_SCHEMA_VERSION`). Bundles are
deterministic — a distributed run writes bytes identical to a local
run of the same request — so they diff cleanly in CI and across
machines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import BundleVersionError
from repro.experiments.common import ExperimentResult
from repro.runtime.suite import SuiteReport
from repro.schema import JsonText, check_bundle_version, render_json

__all__ = ["bundle_files", "load_result", "load_suite", "write_bundle"]


def bundle_files(report: SuiteReport) -> Dict[str, str]:
    """The exact bundle contents as ``filename → text``.

    The single rendering of a report: :func:`write_bundle` writes
    these strings to disk, and the ``repro serve`` daemon's ``fetch``
    endpoint ships them over the wire — sharing one renderer is what
    makes a fetched bundle byte-identical to a locally written one by
    construction. Each experiment's ``to_dict()`` runs once, and its
    text is rendered once, for its own file and ``suite.json`` both.
    """
    files: Dict[str, str] = {}
    payloads: Dict[str, JsonText] = {}
    for exp_id, result in report.results.items():
        text = render_json(result.to_dict())
        files[f"{exp_id}.json"] = text + "\n"
        payloads[exp_id] = JsonText(text)
    # suite.json embeds each payload as rendered above, re-indented.
    files["suite.json"] = render_json(report.to_dict(payloads)) + "\n"
    return files


def write_bundle(report: SuiteReport, out_dir: Union[str, Path]) -> List[Path]:
    """Write one JSON file per experiment plus the ``suite.json``
    report; returns every path written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, text in bundle_files(report).items():
        path = out / name
        path.write_text(text)
        written.append(path)
    return written


def load_result(path: Union[str, Path]) -> ExperimentResult:
    """Read one experiment bundle, validating its schema version."""
    return ExperimentResult.from_json(Path(path).read_text())


def load_suite(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a ``suite.json`` report as a validated dict.

    The suite payload has no dataclass round-trip (its results embed
    per-experiment payloads); callers get the checked raw dict.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise BundleVersionError("suite bundle is not a JSON object")
    check_bundle_version(payload, what="suite bundle")
    for exp_id, result in payload.get("results", {}).items():
        check_bundle_version(result, what=f"suite bundle result {exp_id!r}")
    return payload
