"""Versioning of the JSON result bundles.

Every bundle this repository writes — per-experiment
``ExperimentResult`` files and the ``suite.json`` report — stamps
``schema_version`` so readers can tell exactly what they are parsing.

Version history
---------------

``1``
    The stamp itself. Current. (PR 19 dropped ``suite.json``'s
    ``spilled_cells`` / ``cache_hits`` / ``cache_misses``, constant 0
    since PRs 13/17, without a bump: no reader required them, and a bump
    would have invalidated every checkpoint of the time.)

Readers accept versions ``1 .. BUNDLE_SCHEMA_VERSION`` and refuse an
unstamped payload or a newer version with a
:class:`~repro.errors.BundleVersionError` — a bundle this release did
not write the format of must fail loudly, not half-parse. (When a
version 2 changes the shape, the read path gains a migration step
keyed on the version this function returns.)
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import BundleVersionError

#: The bundle schema version this code writes.
BUNDLE_SCHEMA_VERSION = 1


def check_bundle_version(payload: Dict[str, Any], what: str = "bundle") -> int:
    """Validate ``payload``'s ``schema_version`` and return it.

    Missing, non-integer, or future versions raise
    :class:`BundleVersionError`.
    """
    version = payload.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise BundleVersionError(
            f"{what} has a missing or malformed schema_version {version!r} "
            "(expected a positive integer)"
        )
    if version > BUNDLE_SCHEMA_VERSION:
        raise BundleVersionError(
            f"{what} uses schema_version {version}, but this release reads "
            f"at most version {BUNDLE_SCHEMA_VERSION}; upgrade the repro "
            "package to read it"
        )
    return version
