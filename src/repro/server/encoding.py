"""Trace-storage encoders: direct, low-cardinality, and smart (Design 4).

Reproduces the Figure 14 comparison.  All three encoders ingest the same
logical rows (a span plus its ~100 resource tags) and account for:

* **disk bytes** — what the encoded row costs at rest;
* **memory bytes** — server baseline + write buffer + dictionary
  structures resident during the storage procedure;
* **CPU** — measured by the benchmark harness as wall time around
  ``insert`` (the encoders do genuine per-row work, so relative cost
  emerges from real computation, not constants).

Cost model, mirroring a columnar store (ClickHouse in the paper):

* every encoder first serializes the span's ~20 fixed base columns
  (timestamps, ids, sequence numbers) — identical work for all three;
* ``DirectEncoder`` stores each tag column as a raw String value
  ("one char per digit", §5.2);
* ``LowCardinalityEncoder`` models the LowCardinality(String) type:
  2-byte dictionary references per row plus the part-local dictionary
  re-emitted with every storage part (small parts at high ingest rates
  are what make this expensive);
* ``SmartEncoder`` is DeepFlow's scheme: the agent ships only (VPC, IP)
  as integers; the server joins the pre-encoded Int tag set for that
  endpoint — packed once per endpoint, not per row.
"""

from __future__ import annotations

import struct
from collections import deque

from repro.server.tags import TagRegistry

#: Rows retained in the in-memory write buffer (models the insert path).
BUFFER_ROWS = 8192

#: Rows per storage part at the paper's ingest rate (2×10^5 rows/s with
#: sub-second flushes produces small parts); the low-cardinality
#: dictionaries are re-emitted per part.
PART_ROWS = 256

#: Resident footprint of the storage process itself, identical across
#: encodings (weighed into the memory comparison as in pidstat [85]).
BASELINE_MEMORY_BYTES = 1 << 20

#: Fixed base columns carried by every span row.
_BASE_FIELDS = 20


def _encode_base_row(row_id: int) -> bytes:
    """Serialize the ~20 non-tag columns — common work for all encoders."""
    return struct.pack("<" + "Q" * _BASE_FIELDS,
                       *range(row_id, row_id + _BASE_FIELDS))


class EncodingStats:
    """Accounting shared by the three encoders."""

    __slots__ = ("rows", "disk_bytes", "dict_bytes", "buffer_bytes")

    def __init__(self) -> None:
        self.rows = 0
        self.disk_bytes = 0
        self.dict_bytes = 0
        self.buffer_bytes = 0

    @property
    def total_memory_bytes(self) -> int:
        """Baseline + buffer + dictionary footprint."""
        return BASELINE_MEMORY_BYTES + self.buffer_bytes + self.dict_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EncodingStats(rows={self.rows}, "
                f"disk={self.disk_bytes}, dict={self.dict_bytes}, "
                f"buffer={self.buffer_bytes})")


class _BufferedEncoder:
    """Common write-buffer behaviour."""

    def __init__(self) -> None:
        self.stats = EncodingStats()
        self._buffer: deque[bytes] = deque()

    def _commit_row(self, row: bytes) -> None:
        self._buffer.append(row)
        self.stats.rows += 1
        self.stats.disk_bytes += len(row)
        self.stats.buffer_bytes += len(row)
        if len(self._buffer) > BUFFER_ROWS:
            dropped = self._buffer.popleft()
            self.stats.buffer_bytes -= len(dropped)


class DirectEncoder(_BufferedEncoder):
    """Store every tag column as its raw string value."""

    name = "direct"

    def insert(self, tags: dict[str, str], vpc: str = "",
               ip: str = "") -> None:
        """Encode and account one row."""
        parts = [_encode_base_row(self.stats.rows)]
        for value in tags.values():
            raw = value.encode()
            parts.append(bytes([len(raw) & 0xFF]) + raw)
        self._commit_row(b"".join(parts))


class LowCardinalityEncoder(_BufferedEncoder):
    """Per-column dictionary encoding with 2-byte references."""

    name = "low-cardinality"

    def __init__(self) -> None:
        super().__init__()
        self._columns: dict[str, dict[str, int]] = {}
        self._part_uniques: dict[str, set[str]] = {}
        self._rows_in_part = 0

    def insert(self, tags: dict[str, str], vpc: str = "",
               ip: str = "") -> None:
        """Encode and account one row."""
        refs = bytearray(_encode_base_row(self.stats.rows))
        for key, value in tags.items():
            column = self._columns.setdefault(key, {})
            code = column.get(value)
            if code is None:
                code = len(column)
                column[value] = code
                self.stats.dict_bytes += len(value) + 24  # hash-map entry
            part_unique = self._part_uniques.setdefault(key, set())
            if value not in part_unique:
                part_unique.add(value)
                # Part-local dictionary entry written with the part:
                # length prefix + string + dictionary index slot.
                self.stats.disk_bytes += len(value) + 10
            refs += struct.pack("<H", code & 0xFFFF)
        self._commit_row(bytes(refs))
        self._rows_in_part += 1
        if self._rows_in_part >= PART_ROWS:
            self._rows_in_part = 0
            self._part_uniques.clear()


class SmartEncoder(_BufferedEncoder):
    """DeepFlow's phased tag injection (Figure 8).

    The per-endpoint Int tag blob is packed once and cached; each row
    insert is a single lookup plus an append of fixed-width integers.
    """

    name = "smart"

    def __init__(self, registry: TagRegistry):
        super().__init__()
        self.registry = registry
        self._packed_cache: dict[tuple[str, str], bytes] = {}

    def _packed(self, vpc: str, ip: str) -> bytes:
        key = (vpc, ip)
        blob = self._packed_cache.get(key)
        if blob is None:
            encoded = self.registry.resource_tags_encoded(vpc, ip)
            # Columnar layout: the tag key is the column, so each row
            # stores only the pre-encoded Int value per tag.
            blob = b"".join(struct.pack("<H", tag_value & 0xFFFF)
                            for _tag_key, tag_value in
                            sorted(encoded.items()))
            self._packed_cache[key] = blob
            self.stats.dict_bytes += len(blob) + 16
        return blob

    def insert(self, tags: dict[str, str], vpc: str = "",
               ip: str = "") -> None:
        # The agent already reduced the row to (vpc, ip) in Int form;
        # `tags` is ignored here because smart encoding never ships it.
        """Encode and account one row."""
        row = _encode_base_row(self.stats.rows) + self._packed(vpc, ip)
        self._commit_row(row)

    def query_tags(self, vpc: str, ip: str) -> dict[str, str]:
        """Query-time join: decoded resource tags + self-defined labels
        (Figure 8 step ⑧)."""
        return self.registry.full_tags(vpc, ip)
