"""The server's one span store: time segments with a retention depth.

DeepFlow keeps spans in ClickHouse, whose tables are partitioned by
time and expire by TTL.  :class:`ShardedSpanStore` reproduces that
in-process: one id map, one association-key posting map and one
component forest (:class:`repro.server.database.SpanStore`), whose
"shards" are **time segments** — a span's segment is ``start_time //
window``, and a segment holds that window's spans as one sorted time
run.

Nothing routes by key, so no trace is ever cut: a trace query is one
``find`` in the forest and one intersection with the id map, and a span
list concatenates the slices of the segments it overlaps, in segment
order, with no merge.  ``shard_count`` is the retention depth: once the
newest span's segment is more than ``shard_count`` segments past a
segment, that segment is dropped whole — rows, posting entries and time
run — and the forest is rebuilt from the survivors' postings, at most
once per window.  A store therefore holds at most ``shard_count + 1``
windows of spans, and always at least the last ``shard_count × window``
seconds.  A span that arrives already past that horizon, or whose id is
already stored, is skipped and counted; one that starts after the
ingest clock's window is stored but advances no horizon.

Tenants are a label the server's ingest enrichment puts in ``span.tags``
and its span lists filter on; they never partition anything.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metrics import PipelineMetrics
from repro.server.database import DEFAULT_WINDOW, SpanStore

__all__ = ["DEFAULT_WINDOW", "ShardedSpanStore"]


class ShardedSpanStore(SpanStore):
    """:class:`SpanStore` over time segments of *window* seconds that
    keeps the newest segment and the *shard_count* before it."""

    # The benchmark tracer patches each store class's own entry points
    # by name (``owner.__dict__[attr]``), so the shared implementations
    # are bound here as well as inherited.
    insert_many = SpanStore.insert_many
    flush = SpanStore.flush
    take_component_events = SpanStore.take_component_events
    component_spans = SpanStore.component_spans
    span_list = SpanStore.span_list

    def __init__(self, shard_count: int = 4, *,
                 window: float = DEFAULT_WINDOW,
                 metrics: Optional[PipelineMetrics] = None) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(metrics)
        self.shard_count = shard_count
        self.window = window
        self._retention = float(shard_count)

    # -- commit phases -----------------------------------------------------

    def seal_shard(self, shard_index: int) -> int:
        """Seal segment *shard_index* (its key, ``start_time //
        window``): its pending spans join its sorted time run — one
        commit serves every segment.  Returns how many spans it holds (0
        for a segment never filled or already dropped)."""
        self._commit_time_index()
        run = self._segments.get(shard_index)
        return 0 if run is None else len(run)

    def merge_boundaries(self) -> None:
        """Commit the one posting map into the forest: every link the
        pending spans' keys reveal, in arrival order."""
        self._commit_keys()

    # -- observability -----------------------------------------------------

    def shard_stats(self) -> dict:
        """Live segments, their sizes and what retention has dropped.
        ``boundary_links`` is always 0: nothing cuts a trace."""
        self._commit_time_index()
        sizes = [len(run) for run in self._segments.values()]
        total = sum(sizes)
        return {
            "shards": self.shard_count,
            "window": self.window,
            "segments": [int(key) for key in self._segments],
            "segment_sizes": sizes,
            "spans": total,
            "imbalance": (max(sizes) * len(sizes) / total
                          if total else 1.0),
            "boundary_links": 0,
            "segments_dropped": self._m_segments_dropped.value,
            "spans_dropped": self._m_spans_dropped.value,
        }
