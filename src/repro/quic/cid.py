"""Connection ID management (RFC 9000 §5.1).

Only the subset needed by the paper's quirk analysis is implemented:
issuing new CIDs via NEW_CONNECTION_ID and retiring them. quiche
"drops connections when the same connection ID is retired multiple
times" (§4.2) — :class:`CidRegistry.retire` reports duplicate
retirements so the quiche client profile can abort on them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Set


def make_cid(seed: int, sequence: int) -> bytes:
    """Deterministic 8-byte connection ID for tests and traces."""
    return struct.pack("!II", seed & 0xFFFFFFFF, sequence & 0xFFFFFFFF)


@dataclass
class CidEntry:
    sequence: int
    connection_id: bytes
    retired: bool = False


class CidRegistry:
    """CIDs issued by the peer, keyed by sequence number."""

    def __init__(self) -> None:
        self._entries: Dict[int, CidEntry] = {}
        self._duplicate_retirements = 0

    def register(self, sequence: int, connection_id: bytes) -> bool:
        """Record a NEW_CONNECTION_ID. Returns False for a duplicate
        sequence carrying a *different* CID (a protocol violation)."""
        existing = self._entries.get(sequence)
        if existing is not None:
            return existing.connection_id == connection_id
        self._entries[sequence] = CidEntry(sequence, connection_id)
        return True

    def retire(self, sequence: int) -> bool:
        """Retire a CID. Returns True if this was a *fresh* retirement,
        False when the same sequence was already retired (the quiche
        abort trigger)."""
        entry = self._entries.get(sequence)
        if entry is None:
            self._entries[sequence] = CidEntry(sequence, b"", retired=True)
            return True
        if entry.retired:
            self._duplicate_retirements += 1
            return False
        entry.retired = True
        return True

    @property
    def duplicate_retirements(self) -> int:
        return self._duplicate_retirements

    def active(self) -> Set[int]:
        return {seq for seq, e in self._entries.items() if not e.retired}
