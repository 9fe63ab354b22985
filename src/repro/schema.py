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

Rendering
---------

Every bundle file, and every document the ``repro serve`` daemon
answers with, is ``json.dumps(doc, indent=2)`` text. :func:`render_json`
writes those bytes faster: CPython's C encoder has no indent before
3.13, so the stdlib takes its pure-Python path for every indented
document there. From 3.13 the stdlib is C end to end and faster than
any recursion here, and :func:`render_json` hands it every container
that holds no :class:`JsonText`.
"""

from __future__ import annotations

import functools
import json
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict

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


# -- rendering ------------------------------------------------------------


class JsonText:
    """A value already rendered by :func:`render_json`: a document that
    holds one is rendered with this text spliced in, re-indented for
    its depth, instead of encoding the value again."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


#: A container whose members are all of exactly these types is encoded
#: in one call to the C encoder; one with a subclass member (an
#: ``IntEnum``) recurses here instead, to the same bytes.
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: ``json.dumps(indent=2)`` runs in C end to end from 3.13 on, and
#: beats the recursion below by about 2× on a bundle; 3.11 and 3.12
#: take the stdlib's pure-Python path, which the recursion beats by
#: about 1.4× (PERFORMANCE.md, "The warm service path").
_STDLIB_INDENTS_IN_C = sys.version_info >= (3, 13)


def _unencodable(value: Any) -> Any:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=None)
def _flat(depth: int) -> Callable[[Any, int], Any]:
    """The C encoder of one flat container whose members sit at
    ``depth``. No indent: the item separator carries the newline and
    the member indent, and the caller adds the brackets' own lines."""
    return c_make_encoder(
        None,
        _unencodable,
        encode_basestring_ascii,
        None,
        ": ",
        ",\n" + "  " * depth,
        False,
        False,
        True,
    )


_INFINITY = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key: Any) -> str:
    if not isinstance(key, str):
        if isinstance(key, float):
            key = _float(key)
        elif key is True or key is False or key is None:
            key = json.dumps(key)
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _render(value: Any, depth: int) -> str:
    if isinstance(value, (list, tuple)):
        members = value
    elif isinstance(value, dict):
        members = value.values()
    else:
        return _scalar(value, depth)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if _STDLIB_INDENTS_IN_C:
        try:
            return _indented(json.dumps(value, indent=2), depth)
        except TypeError:
            pass  # a JsonText inside: recurse to splice it in
    inner = "\n" + "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, members)):
        if c_make_encoder is None:
            return _indented(json.dumps(value, indent=2), depth)
        text = "".join(_flat(depth + 1)(value, 0))
        return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
    if isinstance(value, dict):
        body = ("," + inner).join(
            _key(key) + ": " + _render(member, depth + 1) for key, member in value.items()
        )
        return "{" + inner + body + inner[:-2] + "}"
    body = ("," + inner).join(_render(member, depth + 1) for member in value)
    return "[" + inner + body + inner[:-2] + "]"


def _scalar(value: Any, depth: int) -> str:
    # Type checks in the stdlib encoder's order, so subclasses (an
    # IntEnum, a str-valued Enum) encode exactly as it encodes them.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, JsonText):
        return _indented(value.text, depth)
    return _unencodable(value)


def _indented(text: str, depth: int) -> str:
    """Standalone ``indent=2`` text as a value nested at ``depth``: JSON
    text has no raw newline inside a string, so every newline is a line
    break and takes ``2 * depth`` more spaces."""
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def render_json(doc: Any) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte.

    Before Python 3.13, a container whose members are all scalars (a
    table row, a header, a fetch document's ``files`` map) is encoded in
    one call to the stdlib's C encoder, with ``",\\n"`` plus the member
    indent as its item separator; nested containers recurse here.
    Without the C encoder (``json.encoder.c_make_encoder`` is ``None``),
    flat containers go through ``json.dumps`` instead, with the same
    output. From 3.13, whose ``json.dumps`` indents in C, every
    container that holds no :class:`JsonText` goes through it. A
    :class:`JsonText` member is spliced in as rendered: a value
    nested at depth *k* is its own rendering with ``2k`` spaces after
    every newline. A document ``json.dumps`` rejects raises what
    ``json.dumps`` raises.
    """
    try:
        return _render(doc, 0)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(doc, indent=2)
