"""Frame bodies and cache blobs: one pickle, zlib-compressed when it pays.

Every protocol frame (control and data alike) carries the same
self-describing body::

    u8 codec | pickle

The pickle is zlib-compressed (level 6) when it is at least
:data:`COMPRESS_THRESHOLD` bytes and the compressed stream is smaller;
otherwise it ships raw, because compressing a heartbeat-sized body
wastes more than it saves. The codec byte says which, so the reader
needs no per-connection state. An unknown codec byte (including 2,
retired with protocol v7) is a ``ValueError``.

The same codec framing doubles as the disk cache's blob format
(:func:`compress_blob` / :func:`decompress_blob`): a 4-byte magic +
codec byte, then the body. A blob without the magic is corrupt.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Tuple, Union

__all__ = [
    "BLOB_MAGIC",
    "CODEC_RAW",
    "CODEC_ZLIB",
    "COMPRESS_THRESHOLD",
    "DEFAULT_CODEC",
    "codec_id",
    "compress_blob",
    "decode_payload",
    "decompress_blob",
    "encode_payload",
]

CODEC_RAW = 0
CODEC_ZLIB = 1

_CODEC_IDS = {"raw": CODEC_RAW, "zlib": CODEC_ZLIB}

#: The one compressing codec.
DEFAULT_CODEC = "zlib"

#: Pickles smaller than this ship raw.
COMPRESS_THRESHOLD = 4096


def codec_id(name: str) -> int:
    try:
        return _CODEC_IDS[name]
    except KeyError:
        raise ValueError(f"unknown wire codec {name!r}")


def _decompress(ident: int, data: Union[bytes, memoryview]) -> bytes:
    if ident == CODEC_RAW:
        return bytes(data)
    if ident == CODEC_ZLIB:
        return zlib.decompress(data)
    raise ValueError(f"unknown wire codec id {ident}")


def encode_payload(obj: Any, codec: str = DEFAULT_CODEC) -> Tuple[bytes, int]:
    """Encode one frame body.

    Returns ``(body, raw_len)`` where ``raw_len`` is the pickle's size
    before compression — the byte counters report both so the
    compression win is measurable, not vibes. ``codec="raw"`` never
    compresses.
    """
    data = pickle.dumps(obj, protocol=5)
    raw_len = len(data)
    ident = codec_id(codec)
    if ident != CODEC_RAW and raw_len >= COMPRESS_THRESHOLD:
        compressed = zlib.compress(data, 6)
        if len(compressed) < raw_len:
            return bytes([ident]) + compressed, raw_len
    return bytes([CODEC_RAW]) + data, raw_len


def decode_payload(body: Union[bytes, memoryview]) -> Tuple[Any, int]:
    """Decode one frame body → ``(object, raw_len)``; an empty,
    truncated or corrupt body raises ``ValueError``."""
    view = memoryview(body)
    if not view:
        raise ValueError("empty frame body")
    try:
        payload = view[1:] if view[0] == CODEC_RAW else _decompress(view[0], view[1:])
        return pickle.loads(payload), len(payload)
    except (pickle.UnpicklingError, EOFError, zlib.error) as exc:
        raise ValueError(f"corrupt frame body: {exc}") from exc


# -- disk cache blobs ---------------------------------------------------

#: Magic prefix of a codec-framed blob.
BLOB_MAGIC = b"RPCZ"


def compress_blob(data: bytes) -> bytes:
    """Frame a blob as ``magic | u8 codec | body``, zlib-compressed
    (disk cache entries use this)."""
    return BLOB_MAGIC + bytes([CODEC_ZLIB]) + zlib.compress(data, 6)


def decompress_blob(data: bytes) -> bytes:
    """Undo :func:`compress_blob`; bytes without the magic prefix are
    not a blob this code wrote and raise ``ValueError``."""
    if not data.startswith(BLOB_MAGIC):
        raise ValueError("blob is missing the codec-frame magic")
    if len(data) < len(BLOB_MAGIC) + 1:
        raise ValueError("truncated codec-framed blob")
    return _decompress(data[len(BLOB_MAGIC)], memoryview(data)[len(BLOB_MAGIC) + 1 :])
