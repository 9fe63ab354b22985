"""Protocol v4 data-frame bodies: out-of-band pickles + compression.

The v3 wire pickled every payload into one opaque blob. v4 splits the
*data* frames (CHUNK / RESULT / ERROR — the ones that carry real
volume) into a self-describing body::

    u8 codec | payload

where ``payload`` — compressed as a single stream when the codec says
so — is an out-of-band buffer table::

    u32 nbuf | u64 pickle_len | u64 buf_len_0 … u64 buf_len_{n-1}
    | pickle5_bytes | buf_0 … buf_{n-1}

``pickle5_bytes`` is a pickle-protocol-5 stream whose
:class:`pickle.PickleBuffer` buffers were collected out-of-band via
``buffer_callback``; decoding hands ``pickle.loads`` zero-copy
``memoryview`` slices of the received frame instead of re-copied bytes
objects. Control frames (HELLO / WELCOME / HEARTBEAT / SHUTDOWN /
DRAIN) stay plain pickles so a v3 peer is rejected cleanly at HELLO
before any v4 body is ever parsed.

Compression is negotiated per connection at HELLO/WELCOME (the worker
advertises what it can decode, the coordinator picks) and
threshold-gated per frame: bodies smaller than the threshold ship raw
regardless of the negotiated codec, because compressing a 200-byte
heartbeat-sized result wastes more than it saves. zlib is stdlib and
always available; zstd is used opportunistically when either
``zstandard`` or ``zstd`` is importable (never a hard dependency).

The same codec framing doubles as the disk cache's blob format
(:func:`compress_blob` / :func:`decompress_blob`): a 4-byte magic +
codec byte, then the body. A blob without the magic is corrupt.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, List, Optional, Sequence, Tuple, Union

try:  # optional, opportunistic — never a hard dependency
    import zstandard as _zstd_mod  # type: ignore
except ImportError:  # pragma: no cover - environment-dependent
    try:
        import zstd as _zstd_mod  # type: ignore
    except ImportError:
        _zstd_mod = None

__all__ = [
    "BLOB_MAGIC",
    "CODEC_RAW",
    "CODEC_ZLIB",
    "CODEC_ZSTD",
    "DEFAULT_CODEC",
    "DEFAULT_COMPRESS_THRESHOLD",
    "available_codecs",
    "choose_codec",
    "codec_id",
    "codec_name",
    "compress_blob",
    "decode_payload",
    "decompress_blob",
    "encode_payload",
]

CODEC_RAW = 0
CODEC_ZLIB = 1
CODEC_ZSTD = 2

_CODEC_NAMES = {CODEC_RAW: "raw", CODEC_ZLIB: "zlib", CODEC_ZSTD: "zstd"}
_CODEC_IDS = {name: ident for ident, name in _CODEC_NAMES.items()}

#: The codec a coordinator prefers when the peer supports it.
DEFAULT_CODEC = "zlib"

#: Bodies smaller than this ship raw even on a compressing connection.
DEFAULT_COMPRESS_THRESHOLD = 4096

_TABLE_HEADER = struct.Struct(">IQ")  # nbuf, pickle_len
_BUF_LEN = struct.Struct(">Q")


def codec_name(ident: int) -> str:
    try:
        return _CODEC_NAMES[ident]
    except KeyError:
        raise ValueError(f"unknown wire codec id {ident}")


def codec_id(name: str) -> int:
    try:
        return _CODEC_IDS[name]
    except KeyError:
        raise ValueError(f"unknown wire codec {name!r}")


def available_codecs() -> List[str]:
    """Codec names this process can *decode*, preference-ordered
    (advertised in HELLO)."""
    names = ["zlib", "raw"]
    if _zstd_mod is not None:
        names.insert(0, "zstd")
    return names


def choose_codec(offered: Optional[Sequence[str]], preference: str = "auto") -> str:
    """The coordinator's pick for one connection.

    ``offered`` is the worker's advertised decode set; ``preference``
    is the backend's compression setting — ``"auto"`` (best mutually
    supported codec), ``"off"`` (raw), or a specific codec name that
    falls back to raw when the peer cannot decode it.
    """
    if preference == "off":
        return "raw"
    usable = [name for name in (offered or ()) if name in _CODEC_IDS]
    if preference != "auto":
        codec_id(preference)  # validate
        return preference if preference in usable and preference in available_codecs() else "raw"
    for name in available_codecs():
        if name != "raw" and name in usable:
            return name
    return "raw"


def _compress(codec: int, data: bytes) -> bytes:
    if codec == CODEC_ZLIB:
        return zlib.compress(data, 6)
    if codec == CODEC_ZSTD:
        if _zstd_mod is None:
            raise ValueError("zstd requested but no zstd module is available")
        if hasattr(_zstd_mod, "ZstdCompressor"):
            return _zstd_mod.ZstdCompressor().compress(data)
        return _zstd_mod.compress(data)
    raise ValueError(f"unknown wire codec id {codec}")


def _decompress(codec: int, data: Union[bytes, memoryview]) -> bytes:
    if codec == CODEC_ZLIB:
        return zlib.decompress(data)
    if codec == CODEC_ZSTD:
        if _zstd_mod is None:
            raise ValueError("received a zstd body but no zstd module is available")
        if hasattr(_zstd_mod, "ZstdDecompressor"):
            return _zstd_mod.ZstdDecompressor().decompress(bytes(data))
        return _zstd_mod.decompress(bytes(data))
    raise ValueError(f"unknown wire codec id {codec}")


def encode_payload(
    obj: Any,
    codec: str = "raw",
    threshold: int = DEFAULT_COMPRESS_THRESHOLD,
) -> Tuple[bytes, int]:
    """Encode one data-frame body.

    Returns ``(body, raw_len)`` where ``raw_len`` is the uncompressed
    buffer-table size — the byte counters report both so the
    compression win is measurable, not vibes.
    """
    buffers: List[pickle.PickleBuffer] = []
    pick = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    parts = [_TABLE_HEADER.pack(len(views), len(pick))]
    parts.extend(_BUF_LEN.pack(view.nbytes) for view in views)
    parts.append(pick)
    parts.extend(view.tobytes() for view in views)
    payload = b"".join(parts)
    raw_len = len(payload)
    ident = codec_id(codec)
    if ident != CODEC_RAW and raw_len >= threshold:
        compressed = _compress(ident, payload)
        if len(compressed) < raw_len:
            return bytes([ident]) + compressed, raw_len
    return bytes([CODEC_RAW]) + payload, raw_len


def decode_payload(body: Union[bytes, memoryview]) -> Tuple[Any, int]:
    """Decode one data-frame body → ``(object, raw_len)``.

    Out-of-band buffers are handed to ``pickle.loads`` as zero-copy
    ``memoryview`` slices of the (decompressed) payload.
    """
    view = memoryview(body)
    if len(view) < 1:
        raise ValueError("empty data-frame body")
    ident = view[0]
    payload = view[1:]
    if ident != CODEC_RAW:
        payload = memoryview(_decompress(ident, payload))
    if len(payload) < _TABLE_HEADER.size:
        raise ValueError("truncated data-frame buffer table")
    nbuf, pickle_len = _TABLE_HEADER.unpack_from(payload, 0)
    offset = _TABLE_HEADER.size
    lengths: List[int] = []
    for _ in range(nbuf):
        if offset + _BUF_LEN.size > len(payload):
            raise ValueError("truncated data-frame buffer table")
        lengths.append(_BUF_LEN.unpack_from(payload, offset)[0])
        offset += _BUF_LEN.size
    end_pickle = offset + pickle_len
    if end_pickle > len(payload):
        raise ValueError("truncated data-frame pickle")
    pick = payload[offset:end_pickle]
    buffers: List[memoryview] = []
    offset = end_pickle
    for length in lengths:
        if offset + length > len(payload):
            raise ValueError("truncated out-of-band buffer")
        buffers.append(payload[offset : offset + length])
        offset += length
    if offset != len(payload):
        raise ValueError("trailing bytes after out-of-band buffers")
    return pickle.loads(pick, buffers=buffers), len(payload)


# -- disk cache blobs ---------------------------------------------------

#: Magic prefix of a codec-framed blob.
BLOB_MAGIC = b"RPCZ"


def compress_blob(data: bytes, codec: str = DEFAULT_CODEC) -> bytes:
    """Frame a blob as ``magic | u8 codec | body`` with the wire codec
    helpers (disk cache entries use this)."""
    ident = codec_id(codec)
    if ident == CODEC_RAW:
        return BLOB_MAGIC + bytes([CODEC_RAW]) + data
    return BLOB_MAGIC + bytes([ident]) + _compress(ident, data)


def decompress_blob(data: bytes) -> bytes:
    """Undo :func:`compress_blob`; bytes without the magic prefix are
    not a blob this code wrote and raise ``ValueError``."""
    if not data.startswith(BLOB_MAGIC):
        raise ValueError("blob is missing the codec-frame magic")
    if len(data) < len(BLOB_MAGIC) + 1:
        raise ValueError("truncated codec-framed blob")
    ident = data[len(BLOB_MAGIC)]
    body = memoryview(data)[len(BLOB_MAGIC) + 1 :]
    if ident == CODEC_RAW:
        return bytes(body)
    return _decompress(ident, body)
